package netnode

import (
	"encoding/binary"

	"github.com/canon-dht/canon/internal/transport"
)

// Binary marshaling for the routed key-value operations (docs/WIRE.md §10).
// They follow the conventions documented in binwire.go. Value fields ride as
// optional bytes, so the decoder bounds them by the bytes actually present,
// exactly as storeReq2 does.

// Compile-time interface checks for the key-value payloads.
var (
	_ transport.BinaryAppender = getReq{}
	_ transport.BinaryAppender = getResp{}
	_ transport.BinaryAppender = putReq{}
	_ transport.BinaryAppender = putResp{}
)

// ---- get ----

// AppendBinary implements transport.BinaryAppender.
func (q getReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendU64(b, q.Key)
	b = appendStr(b, q.Origin)
	b = binary.AppendVarint(b, int64(q.Level))
	b = binary.AppendVarint(b, int64(q.Hops))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *getReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Key = r.u64()
	q.Origin = r.str()
	q.Level = int(r.varint())
	q.Hops = int(r.varint())
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p getResp) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(p.Status))
	b = appendOptBytes(b, p.Value)
	b = binary.AppendVarint(b, int64(p.Level))
	b = binary.AppendVarint(b, int64(p.Hops))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *getResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Status = int(r.varint())
	p.Value = r.optBytes()
	p.Level = int(r.varint())
	p.Hops = int(r.varint())
	return r.done()
}

// ---- put ----

// AppendBinary implements transport.BinaryAppender.
func (q putReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendU64(b, q.Key)
	b = appendOptBytes(b, q.Value)
	b = appendStr(b, q.Storage)
	b = appendStr(b, q.Access)
	b = q.Pointer.appendTo(b)
	b = binary.AppendVarint(b, int64(q.Hops))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *putReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Key = r.u64()
	q.Value = r.optBytes()
	q.Storage = r.str()
	q.Access = r.str()
	q.Pointer.readFrom(r)
	q.Hops = int(r.varint())
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p putResp) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(p.Status))
	b = p.Owner.appendTo(b)
	b = binary.AppendVarint(b, int64(p.Hops))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *putResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Status = int(r.varint())
	p.Owner.readFrom(r)
	p.Hops = int(r.varint())
	return r.done()
}
