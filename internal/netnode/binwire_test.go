package netnode

import (
	"os"
	"reflect"
	"testing"

	"github.com/canon-dht/canon/internal/telemetry"
)

// checkRoundTrip requires decode(encode(in)) to deep-equal in — nil and
// empty slices are different values, as they are on the wire.
func checkRoundTrip(t *testing.T, in wireBody) {
	t.Helper()
	enc, err := in.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	out := newOf(in).(wireDecoder)
	if err := out.UnmarshalBinary(enc); err != nil {
		t.Fatalf("decode %T: %v", in, err)
	}
	if got := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(got, in) {
		t.Errorf("%T round-tripped\n  from %+v\n  to   %+v", in, in, got)
	}
}

func TestBinWireInfoRoundTrip(t *testing.T) {
	for _, in := range []Info{
		{},
		{ID: 1, Name: "a", Addr: "x:1"},
		{ID: ^uint64(0), Name: "stanford/cs/db", Addr: "192.0.2.1:65535"},
	} {
		checkRoundTrip(t, in)
	}
}

func TestBinWireLookupRoundTrip(t *testing.T) {
	for _, in := range []wireBody{
		lookupReq{},
		lookupReq{Key: 123, Prefix: "stanford", routeHeader: routeHeader{Hops: 4}},
		lookupReq{Key: ^uint64(0), routeHeader: routeHeader{Trace: "t-1", Spans: binwireSpans}},
		lookupReq{Key: 5, routeHeader: routeHeader{Spans: []telemetry.Span{}}}, // empty-but-present slice
		lookupResp{},
		lookupResp{Pred: binwireInfos[0], Succ: binwireInfos[1], routeHeader: routeHeader{Hops: 7, Trace: "t-2", Spans: binwireSpans}},
	} {
		checkRoundTrip(t, in)
	}
}

func TestBinWireFetchRoundTrip(t *testing.T) {
	for _, in := range []wireBody{
		fetchReq{Key: 11, Origin: "mit/csail"},
		fetchResp{},
		fetchResp{Values: []fetchValue{}},
		fetchResp{Values: []fetchValue{
			{Value: []byte("data"), Access: "stanford"},
			{Value: nil, Access: "", Pointer: Info{ID: 4, Name: "d", Addr: "w:4"}},
			{Value: []byte{}}, // empty-but-present value
		}},
	} {
		checkRoundTrip(t, in)
	}
}

// TestBinWireMembershipRoundTrip covers the ring-maintenance and membership
// payloads: negative levels, the nil-vs-empty successor list and the zero
// Info included.
func TestBinWireMembershipRoundTrip(t *testing.T) {
	for _, in := range []wireBody{
		neighborsReq{}, neighborsReq{Level: 999}, neighborsReq{Level: -3},
		neighborsResp{}, neighborsResp{Succs: []Info{}}, neighborsResp{Pred: binwireInfos[0], Succs: binwireInfos},
		notifyReq{}, notifyReq{Level: 2, From: binwireInfos[1]}, notifyReq{Level: -1, From: binwireInfos[0], AsSuccessor: true},
		registerReq{}, registerReq{Prefix: "a/b", From: binwireInfos[0]},
		membersReq{}, membersReq{Prefix: "a/b"},
		membersResp{}, membersResp{Members: []Info{}}, membersResp{Members: binwireInfos},
		leavingReq{}, leavingReq{From: binwireInfos[0], Succs: []Info{}}, leavingReq{From: binwireInfos[0], Succs: binwireInfos},
	} {
		checkRoundTrip(t, in)
	}
}

// TestBinWireStorageRoundTrip covers the versioned store and the
// anti-entropy payloads.
func TestBinWireStorageRoundTrip(t *testing.T) {
	entry := storeRecord{Key: 9, Value: []byte("v"), Storage: "s/t", Access: "s", Replica: true, Version: 1 << 50}
	for _, in := range []wireBody{
		storeBatch{}, storeBatch{Entries: []storeRecord{}},
		storeBatch{Entries: []storeRecord{{}, entry, {Key: 1, Value: []byte{}, Pointer: binwireInfos[0]}}},
		syncTreeReq{}, syncTreeReq{Prefix: "s", Lo: ^uint64(0), Hi: 1},
		syncTreeResp{}, syncTreeResp{Leaves: []uint64{}}, syncTreeResp{Root: 7, Leaves: []uint64{0, ^uint64(0)}},
		syncKeysReq{}, syncKeysReq{Buckets: []int{}}, syncKeysReq{Prefix: "s", Lo: 1, Hi: 2, Buckets: []int{0, 255}},
		syncKeysResp{}, syncKeysResp{Items: []syncItem{}}, syncKeysResp{Items: []syncItem{{Key: 9, Storage: "s", Access: "a", Pointer: true, Version: 4, Digest: 5}, {}}},
		syncPullReq{}, syncPullReq{Prefix: "s", Lo: 1, Hi: 2, Key: 3},
		syncPullResp{}, syncPullResp{Entries: []storeRecord{}}, syncPullResp{Entries: []storeRecord{entry, {}}},
		repairResp{}, repairResp{Partners: 3, Pushed: 1 << 40, Pulled: 2},
	} {
		checkRoundTrip(t, in)
	}
}

// TestBinWireGeometryRoundTrip covers the geometry-maintenance payloads,
// the nil-vs-empty slice distinction included.
func TestBinWireGeometryRoundTrip(t *testing.T) {
	for _, in := range []wireBody{
		bucketRefReq{Prefix: "stanford/cs", Target: ^uint64(0)},
		bucketRefResp{}, bucketRefResp{Contacts: []Info{}}, bucketRefResp{Contacts: binwireInfos},
		lookaheadReq{}, lookaheadReq{Levels: 3},
		lookaheadResp{},
		lookaheadResp{Succs: []Info{}, Ests: []uint64{}},
		lookaheadResp{Succs: binwireInfos, Ests: []uint64{2, 1 << 40, 0}},
	} {
		checkRoundTrip(t, in)
	}
}

// TestBinWireRoutedRoundTrip covers the routed key-value payloads, the
// nil-vs-empty value and span distinctions, traced routes and the negative
// "no level answered" included.
func TestBinWireRoutedRoundTrip(t *testing.T) {
	ptr := Info{ID: 3, Name: "c", Addr: "z:3"}
	for _, in := range []wireBody{
		getReq{}, getReq{Key: 9}, getReq{Key: ^uint64(0), Origin: "stanford/cs", Level: 2, routeHeader: routeHeader{Hops: 5, Trace: "t-3", Spans: binwireSpans}},
		getResp{},
		getResp{Status: statusNotFound, Level: -1, routeHeader: routeHeader{Hops: 3}},
		getResp{Value: []byte("v"), Level: 2, routeHeader: routeHeader{Trace: "t-3", Spans: binwireSpans}},
		getResp{Value: []byte{}, routeHeader: routeHeader{Hops: 1}}, // empty-but-present value
		putReq{},
		putReq{Key: 9, Value: []byte("v"), Storage: "stanford/cs", Access: "stanford", routeHeader: routeHeader{Hops: 2}},
		putReq{Key: 9, Value: []byte{}, routeHeader: routeHeader{Spans: []telemetry.Span{}}},
		putReq{Key: 9, Storage: "stanford/cs", Access: "stanford", Pointer: ptr, routeHeader: routeHeader{Hops: 7}},
		putResp{}, putResp{Status: statusBadDomain}, putResp{Owner: ptr, routeHeader: routeHeader{Hops: 4, Trace: "t-4", Spans: binwireSpans}},
	} {
		checkRoundTrip(t, in)
	}
}

// TestBinWireStrictDecoding pins the strictness guarantees for every layout
// in the registry: the sample round-trips, and a trailing byte and every
// truncation must error, never silently decode.
func TestBinWireStrictDecoding(t *testing.T) {
	for _, e := range wireRegistry() {
		enc, err := encodeWire(e.sample)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeWire(e.sample, enc); err != nil || !reflect.DeepEqual(got, e.sample) {
			t.Errorf("%s round-tripped\n  from %+v\n  to   %+v (err %v)", e.name, e.sample, got, err)
		}
		if _, err := decodeWire(e.sample, append(enc[:len(enc):len(enc)], 0x00)); err == nil {
			t.Errorf("%s: trailing byte decoded without error", e.name)
		}
		for i := 0; i < len(enc); i++ {
			if _, err := decodeWire(e.sample, enc[:i]); err == nil {
				t.Errorf("%s: truncation to %d of %d bytes decoded without error", e.name, i, len(enc))
			}
		}
	}
}

// FuzzBinWireDecode throws arbitrary bytes at every decoder in the registry:
// none may panic or over-allocate, whatever the input, and whatever one
// accepts must re-encode to bytes that decode to the same value.
func FuzzBinWireDecode(f *testing.F) {
	// Seeds: the committed golden encodings, one fully populated and one
	// zero-valued instance of every layout.
	golden, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		f.Fatal(err)
	}
	for _, g := range goldenLines(f, golden) {
		f.Add(g.data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	registry := wireRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, e := range registry {
			first, err := decodeWire(e.sample, data)
			if err != nil {
				continue
			}
			reenc, err := encodeWire(first)
			if err != nil {
				t.Fatalf("%s: re-encode of an accepted payload: %v", e.name, err)
			}
			again, err := decodeWire(e.sample, reenc)
			if err != nil {
				t.Fatalf("%s: re-decode: %v", e.name, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s: unstable round trip\n  first %+v\n  again %+v", e.name, first, again)
			}
		}
	})
}

// FuzzBinWireRoundTrip builds every body from fuzzed primitives — strings
// that are not UTF-8 included — and requires decode(encode(x)) to deep-equal
// x.
func FuzzBinWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), "stanford/cs", 3, "trace-1", 2, "hop", "addr:1", -1, true)
	f.Add(uint64(0), "", 0, "", 0, "", "", 0, false)
	f.Add(^uint64(0), "p\xff", -9, "\xc4CN", 7, "n\x80", "\x00", 1<<40, true)
	f.Fuzz(func(t *testing.T, key uint64, prefix string, hops int, trace string,
		n int, name, addr string, level int, flag bool) {
		if n < 0 {
			n = -n
		}
		n %= 8
		info := Info{ID: key, Name: name, Addr: addr}
		var (
			spans []telemetry.Span
			infos []Info
			words []uint64
			ints  []int
			value []byte
		)
		if flag {
			spans, infos, words, ints = []telemetry.Span{}, []Info{}, []uint64{}, []int{}
			value = []byte(trace)
		}
		for j := 0; j < n; j++ {
			spans = append(spans, telemetry.Span{
				Hop: j, Name: name, ID: key + uint64(j), Addr: addr,
				Level: level, RouteAround: !flag, Owner: flag,
			})
			infos = append(infos, Info{ID: key + uint64(j), Name: name, Addr: addr})
			words = append(words, key>>uint(j))
			ints = append(ints, int(uint(hops)>>uint(j))) // wire form is unsigned
		}
		entry := storeRecord{Key: key, Value: value, Storage: prefix, Access: trace, Pointer: info, Replica: flag, Version: key}
		route := routeHeader{Hops: hops, Trace: trace, Spans: spans}
		var entries []storeRecord
		var items []syncItem
		var values []fetchValue
		for j := 0; j < n; j++ {
			entries = append(entries, entry)
			items = append(items, syncItem{Key: key, Storage: prefix, Access: trace, Pointer: flag, Version: key, Digest: ^key})
			values = append(values, fetchValue{Value: value, Access: trace, Pointer: info})
		}
		for _, in := range []wireBody{
			info,
			lookupReq{Key: key, Prefix: prefix, routeHeader: route},
			lookupResp{Pred: info, Succ: info, routeHeader: route},
			fetchReq{Key: key, Origin: prefix},
			fetchResp{Values: values},
			neighborsReq{Level: level},
			neighborsResp{Pred: info, Succs: infos},
			notifyReq{Level: level, From: info, AsSuccessor: flag},
			registerReq{Prefix: prefix, From: info},
			membersReq{Prefix: prefix},
			membersResp{Members: infos},
			leavingReq{From: info, Succs: infos},
			storeBatch{Entries: entries},
			syncTreeReq{Prefix: prefix, Lo: key, Hi: ^key},
			syncTreeResp{Root: key, Leaves: words},
			syncKeysReq{Prefix: prefix, Lo: key, Hi: ^key, Buckets: ints},
			syncKeysResp{Items: items},
			syncPullReq{Prefix: prefix, Lo: key, Hi: ^key, Key: key},
			syncPullResp{Entries: entries},
			repairResp{Partners: n, Pushed: hops, Pulled: level},
			bucketRefReq{Prefix: prefix, Target: key},
			bucketRefResp{Contacts: infos},
			lookaheadReq{Levels: level},
			lookaheadResp{Succs: infos, Ests: words},
			getReq{Key: key, Origin: prefix, Level: level, routeHeader: route},
			getResp{Status: n, Value: value, Level: level, routeHeader: route},
			putReq{Key: key, Value: value, Storage: prefix, Access: trace, Pointer: info, routeHeader: route},
			putResp{Status: n, Owner: info, routeHeader: route},
		} {
			checkRoundTrip(t, in)
		}
	})
}
