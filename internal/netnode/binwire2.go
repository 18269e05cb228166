package netnode

import (
	"encoding/binary"

	"github.com/canon-dht/canon/internal/transport"
)

// Binary marshaling for the versioned store and the anti-entropy protocol
// (docs/WIRE.md §8). They follow the conventions documented in binwire.go.

// Compile-time interface checks for the storage payloads.
var (
	_ transport.BinaryAppender = storeReq2{}
	_ transport.BinaryAppender = syncTreeReq{}
	_ transport.BinaryAppender = syncTreeResp{}
	_ transport.BinaryAppender = syncKeysReq{}
	_ transport.BinaryAppender = syncKeysResp{}
	_ transport.BinaryAppender = syncPullReq{}
	_ transport.BinaryAppender = syncPullResp{}
	_ transport.BinaryAppender = repairResp{}
)

// ---- store2 ----

func (q storeReq2) appendTo(b []byte) []byte {
	b = appendU64(b, q.Key)
	b = appendOptBytes(b, q.Value)
	b = appendStr(b, q.Storage)
	b = appendStr(b, q.Access)
	b = q.Pointer.appendTo(b)
	b = appendBool(b, q.Replica)
	b = binary.AppendVarint(b, int64(q.Level))
	b = binary.AppendUvarint(b, q.Version)
	return b
}

func (q *storeReq2) readFrom(r *binReader) {
	q.Key = r.u64()
	q.Value = r.optBytes()
	q.Storage = r.str()
	q.Access = r.str()
	q.Pointer.readFrom(r)
	q.Replica = r.bool()
	q.Level = int(r.varint())
	q.Version = r.uvarint()
}

// AppendBinary implements transport.BinaryAppender.
func (q storeReq2) AppendBinary(b []byte) ([]byte, error) { return q.appendTo(b), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *storeReq2) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.readFrom(r)
	return r.done()
}

// ---- synctree ----

// AppendBinary implements transport.BinaryAppender.
func (q syncTreeReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendStr(b, q.Prefix)
	b = appendU64(b, q.Lo)
	b = appendU64(b, q.Hi)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *syncTreeReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Prefix = r.str()
	q.Lo = r.u64()
	q.Hi = r.u64()
	return r.done()
}

// AppendBinary implements transport.BinaryAppender. Leaf digests are
// uniformly distributed, so they ride as fixed 8-byte words.
func (p syncTreeResp) AppendBinary(b []byte) ([]byte, error) {
	b = appendU64(b, p.Root)
	b = appendSliceLen(b, len(p.Leaves), p.Leaves == nil)
	for _, l := range p.Leaves {
		b = appendU64(b, l)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *syncTreeResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Root = r.u64()
	n, present := r.sliceLen()
	if !present {
		p.Leaves = nil
		return r.done()
	}
	p.Leaves = make([]uint64, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		p.Leaves = append(p.Leaves, r.u64())
	}
	return r.done()
}

// ---- synckeys ----

// AppendBinary implements transport.BinaryAppender.
func (q syncKeysReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendStr(b, q.Prefix)
	b = appendU64(b, q.Lo)
	b = appendU64(b, q.Hi)
	b = appendSliceLen(b, len(q.Buckets), q.Buckets == nil)
	for _, bk := range q.Buckets {
		b = binary.AppendUvarint(b, uint64(bk))
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *syncKeysReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Prefix = r.str()
	q.Lo = r.u64()
	q.Hi = r.u64()
	n, present := r.sliceLen()
	if !present {
		q.Buckets = nil
		return r.done()
	}
	q.Buckets = make([]int, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		q.Buckets = append(q.Buckets, int(r.uvarint()))
	}
	return r.done()
}

func appendSyncItem(b []byte, it syncItem) []byte {
	b = appendU64(b, it.Key)
	b = appendStr(b, it.Storage)
	b = appendStr(b, it.Access)
	b = appendBool(b, it.Pointer)
	b = binary.AppendUvarint(b, it.Version)
	b = appendU64(b, it.Digest)
	return b
}

func readSyncItem(r *binReader) syncItem {
	var it syncItem
	it.Key = r.u64()
	it.Storage = r.str()
	it.Access = r.str()
	it.Pointer = r.bool()
	it.Version = r.uvarint()
	it.Digest = r.u64()
	return it
}

// AppendBinary implements transport.BinaryAppender.
func (p syncKeysResp) AppendBinary(b []byte) ([]byte, error) {
	b = appendSliceLen(b, len(p.Items), p.Items == nil)
	for _, it := range p.Items {
		b = appendSyncItem(b, it)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *syncKeysResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	n, present := r.sliceLen()
	if !present {
		p.Items = nil
		return r.done()
	}
	p.Items = make([]syncItem, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		p.Items = append(p.Items, readSyncItem(r))
	}
	return r.done()
}

// ---- syncpull ----

// AppendBinary implements transport.BinaryAppender.
func (q syncPullReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendStr(b, q.Prefix)
	b = appendU64(b, q.Lo)
	b = appendU64(b, q.Hi)
	b = appendU64(b, q.Key)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *syncPullReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Prefix = r.str()
	q.Lo = r.u64()
	q.Hi = r.u64()
	q.Key = r.u64()
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p syncPullResp) AppendBinary(b []byte) ([]byte, error) {
	b = appendSliceLen(b, len(p.Entries), p.Entries == nil)
	for _, e := range p.Entries {
		b = e.appendTo(b)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *syncPullResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	n, present := r.sliceLen()
	if !present {
		p.Entries = nil
		return r.done()
	}
	p.Entries = make([]storeReq2, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		var e storeReq2
		e.readFrom(r)
		p.Entries = append(p.Entries, e)
	}
	return r.done()
}

// ---- repair ----

// AppendBinary implements transport.BinaryAppender.
func (p repairResp) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(p.Partners))
	b = binary.AppendUvarint(b, uint64(p.Pushed))
	b = binary.AppendUvarint(b, uint64(p.Pulled))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *repairResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Partners = int(r.uvarint())
	p.Pushed = int(r.uvarint())
	p.Pulled = int(r.uvarint())
	return r.done()
}
