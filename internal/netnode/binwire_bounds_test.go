package netnode

import (
	"encoding/binary"
	"testing"
)

// hostilePayload builds prefix + uvarint(count+1) + count bytes of pad —
// a slice header whose declared count passes the one-byte-per-element
// plausibility check in sliceLen but whose elements cannot all decode.
func hostilePayload(prefix []byte, count int, pad byte) []byte {
	b := append([]byte{}, prefix...)
	b = binary.AppendUvarint(b, uint64(count+1))
	padding := make([]byte, count)
	for i := range padding {
		padding[i] = pad
	}
	return append(b, padding...)
}

// TestBinWireHostileCountsBounded pins the wirebounds fix: every decoder
// that preallocates from a wire-declared element count must cap the
// reservation at maxDecodePrealloc. Each payload here claims 200k elements;
// the 0xff padding makes the first element's (u)varint overflow immediately,
// so the decode errors with zero elements appended and the slice left in the
// struct still has exactly the capacity the decoder reserved up front —
// which must be the cap, not the claimed count. The decode must also still
// fail: the cap bounds the reservation, never forgives the bad count.
func TestBinWireHostileCountsBounded(t *testing.T) {
	const n = 200_000

	check := func(name string, err error, gotCap int) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: hostile payload decoded without error", name)
		}
		if gotCap > maxDecodePrealloc {
			t.Errorf("%s: decoder reserved capacity %d for a claimed count of %d (cap is %d)",
				name, gotCap, n, maxDecodePrealloc)
		}
	}

	// lookupReq: Key u64, empty Prefix, Hops 0, empty Trace, then Spans.
	var lq lookupReq
	lookupPrefix := append(make([]byte, 8), 0x00, 0x00, 0x00)
	check("lookupReq.Spans", lq.UnmarshalBinary(hostilePayload(lookupPrefix, n, 0xff)), cap(lq.Spans))

	var fp fetchResp
	check("fetchResp.Values", fp.UnmarshalBinary(hostilePayload(nil, n, 0xff)), cap(fp.Values))

	// syncKeysReq: empty Prefix, Lo, Hi, then Buckets.
	var kq syncKeysReq
	check("syncKeysReq.Buckets", kq.UnmarshalBinary(hostilePayload(make([]byte, 17), n, 0xff)), cap(kq.Buckets))

	var kp syncKeysResp
	check("syncKeysResp.Items", kp.UnmarshalBinary(hostilePayload(nil, n, 0xff)), cap(kp.Items))

	var pp syncPullResp
	check("syncPullResp.Entries", pp.UnmarshalBinary(hostilePayload(nil, n, 0xff)), cap(pp.Entries))

	// The Info lists: an element's ID swallows eight 0xff bytes and its Name
	// length overflows. neighborsResp and leavingReq lead with a zero Info
	// (ID, empty Name, empty Addr); lookaheadResp's estimates follow a nil
	// successor list.
	zeroInfo := make([]byte, 10)
	var np neighborsResp
	check("neighborsResp.Succs", np.UnmarshalBinary(hostilePayload(zeroInfo, n, 0xff)), cap(np.Succs))
	var mp membersResp
	check("membersResp.Members", mp.UnmarshalBinary(hostilePayload(nil, n, 0xff)), cap(mp.Members))
	var lv leavingReq
	check("leavingReq.Succs", lv.UnmarshalBinary(hostilePayload(zeroInfo, n, 0xff)), cap(lv.Succs))
	var bp bucketRefResp
	check("bucketRefResp.Contacts", bp.UnmarshalBinary(hostilePayload(nil, n, 0xff)), cap(bp.Contacts))
	var ap lookaheadResp
	check("lookaheadResp.Ests", ap.UnmarshalBinary(hostilePayload([]byte{0x00}, n, 0xff)), cap(ap.Ests))

	// syncTreeResp leaves are raw u64s, so 0xff bytes decode fine and the
	// capacity legitimately grows past the preallocation as elements land;
	// an odd padding length still truncates the last element. The claimed
	// count of 200_001 would reserve 1.6 MB up front — with the cap, the
	// capacity only ever reflects the ~25k elements actually decoded.
	var tp syncTreeResp
	err := tp.UnmarshalBinary(hostilePayload(make([]byte, 8), n+1, 0xff))
	if err == nil {
		t.Error("syncTreeResp.Leaves: hostile payload decoded without error")
	}
	if cap(tp.Leaves) > (n+1)/2 {
		t.Errorf("syncTreeResp.Leaves: decoder reserved capacity %d for a claimed count of %d (cap is %d)",
			cap(tp.Leaves), n+1, maxDecodePrealloc)
	}
}
