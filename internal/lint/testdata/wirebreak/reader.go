// Package wirebreak is the golden fixture for the breaking-change gate: a
// codec whose layout drifted from the committed wire.schema.json baseline
// without a wire version bump. reader.go is the miniature wire toolkit,
// written in the idioms of internal/netnode/binwire.go.
package wirebreak

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// muxVersion is the wire version the baseline was recorded at; it did not
// move with the layout change in bad.go.
const muxVersion = 1

var errWire = errors.New("wirebreak: malformed payload")

func appendU64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.BigEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var x [4]byte
	binary.BigEndian.PutUint32(x[:], v)
	return append(b, x[:]...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errWire, what, r.off)
	}
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *binReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.fail("truncated u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *binReader) str() string {
	if r.err != nil {
		return ""
	}
	n, sz := binary.Uvarint(r.data[r.off:])
	if sz <= 0 || n > uint64(len(r.data)-r.off-sz) {
		r.fail("bad string")
		return ""
	}
	s := string(r.data[r.off+sz : r.off+sz+int(n)])
	r.off += sz + int(n)
	return s
}

func (r *binReader) done() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail("trailing bytes")
	}
	return r.err
}
