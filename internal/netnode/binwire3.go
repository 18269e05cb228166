package netnode

import (
	"encoding/binary"

	"github.com/canon-dht/canon/internal/transport"
)

// Binary marshaling for the geometry maintenance protocol (docs/WIRE.md §9):
// Kandy's bucket-refresh probe and Cacophony's lookahead neighbor exchange.
// They follow the conventions documented in binwire.go.

// Compile-time interface checks for the geometry maintenance payloads.
var (
	_ transport.BinaryAppender = bucketRefReq{}
	_ transport.BinaryAppender = bucketRefResp{}
	_ transport.BinaryAppender = lookaheadReq{}
	_ transport.BinaryAppender = lookaheadResp{}
)

// appendUvarints encodes a slice of small counters (ring-size estimates) as
// uvarints.
func appendUvarints(b []byte, vs []uint64) []byte {
	b = appendSliceLen(b, len(vs), vs == nil)
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func readUvarints(r *binReader) []uint64 {
	n, present := r.sliceLen()
	if !present {
		return nil
	}
	out := make([]uint64, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		out = append(out, r.uvarint())
	}
	return out
}

// ---- bucketref ----

// AppendBinary implements transport.BinaryAppender.
func (q bucketRefReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendStr(b, q.Prefix)
	b = appendU64(b, q.Target)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *bucketRefReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Prefix = r.str()
	q.Target = r.u64()
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p bucketRefResp) AppendBinary(b []byte) ([]byte, error) {
	return appendInfos(b, p.Contacts), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *bucketRefResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Contacts = readInfos(r)
	return r.done()
}

// ---- lookahead ----

// AppendBinary implements transport.BinaryAppender.
func (q lookaheadReq) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(q.Levels))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *lookaheadReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Levels = int(r.varint())
	return r.done()
}

// AppendBinary implements transport.BinaryAppender. Estimates are node
// counts, usually small, so they ride as uvarints.
func (p lookaheadResp) AppendBinary(b []byte) ([]byte, error) {
	b = appendInfos(b, p.Succs)
	b = appendUvarints(b, p.Ests)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *lookaheadResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Succs = readInfos(r)
	p.Ests = readUvarints(r)
	return r.done()
}
