// WAL record framing and the entry payload codec.
//
// A segment file is a plain concatenation of records, each framed as
//
//	u32 payload length (big-endian)
//	u32 CRC-32C over the type byte and the payload (big-endian)
//	u8  record type (1 = put, 2 = delete)
//	payload bytes
//
// and nothing else: no file header, no footer, no padding. Replay scans
// records front to back; the first frame that is truncated, oversized or
// fails its checksum ends the scan. In the newest segment that is the torn
// tail a crash mid-write leaves behind — expected, and discarded. In any
// sealed segment it is corruption of acked history and Open refuses to
// proceed (ErrCorrupt).
//
// The payload codec follows the conventions of netnode's binary wire
// format (docs/WIRE.md Section 5): fixed 8-byte big-endian ring ids,
// uvarint lengths and counts, and a nil/present scheme for optional byte
// slices (0 = nil, n = length n-1). There is no format header either: a
// record written by a build with a different payload layout passes its CRC,
// fails the strict decode, and makes Open refuse the directory (ErrCorrupt)
// wherever it sits — it is never mistaken for a torn tail and trimmed.
// Decoders are strict — trailing bytes are an error — so one byte of
// payload damage cannot silently decode, and re-encoding a decoded payload
// reproduces it byte for byte (the FuzzWALRecordDecode invariant).
package canonstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	recPut    byte = 1
	recDelete byte = 2
)

// walHeaderLen is the fixed frame header: length, checksum, type.
const walHeaderLen = 4 + 4 + 1

// maxWALRecordBytes bounds one record's payload: larger lengths are
// treated as frame damage, so a flipped length byte cannot demand a
// gigantic allocation during replay.
const maxWALRecordBytes = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks the point where a segment stops parsing; whether that is
// benign (newest segment) or fatal (sealed segment) is the caller's call.
var errTorn = errors.New("canonstore: torn WAL record")

// appendRecord frames one record onto b. The frame is built in place — the
// type byte and payload are contiguous, so one checksum pass covers them —
// which keeps a WAL append free of heap allocations.
func appendRecord(b []byte, typ byte, payload []byte) []byte {
	off := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, 0, 0, 0, 0, typ)
	b = append(b, payload...)
	binary.BigEndian.PutUint32(b[off+4:], crc32.Checksum(b[off+8:], crcTable))
	return b
}

// scanRecords walks the records of one segment, calling fn for each intact
// frame. It returns how many bytes formed intact records. err is nil when
// the data ends exactly on a record boundary, wraps errTorn when the tail
// fails framing or checksum, and carries fn's error through unchanged.
func scanRecords(data []byte, fn func(typ byte, payload []byte) error) (consumed int, err error) {
	off := 0
	for off < len(data) {
		if off+walHeaderLen > len(data) {
			return off, fmt.Errorf("%w: truncated header at offset %d", errTorn, off)
		}
		n := binary.BigEndian.Uint32(data[off : off+4])
		if n > maxWALRecordBytes {
			return off, fmt.Errorf("%w: payload length %d exceeds limit at offset %d", errTorn, n, off)
		}
		want := binary.BigEndian.Uint32(data[off+4 : off+8])
		end := off + walHeaderLen + int(n)
		if end > len(data) {
			return off, fmt.Errorf("%w: truncated payload at offset %d", errTorn, off)
		}
		typ := data[off+8]
		payload := data[off+walHeaderLen : end]
		c := crc32.Update(0, crcTable, data[off+8:off+9])
		c = crc32.Update(c, crcTable, payload)
		if c != want {
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", errTorn, off)
		}
		if err := fn(typ, payload); err != nil {
			return off, err
		}
		off = end
	}
	return off, nil
}

// ---- payload codec ----

var errWALDecode = errors.New("canonstore: malformed WAL payload")

func appendU64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.BigEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendOptBytes encodes nil as 0 and a present slice p as uvarint(len+1)+p.
func appendOptBytes(b, p []byte) []byte {
	if p == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(p))+1)
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// walReader decodes the conventions above; the first failure latches.
type walReader struct {
	data []byte
	off  int
	err  error
}

func (r *walReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errWALDecode, what, r.off)
	}
}

func (r *walReader) u64() uint64 {
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

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *walReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("string overflows buffer")
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *walReader) optBytes() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.data)-r.off) {
		r.fail("bytes overflow buffer")
		return nil
	}
	p := make([]byte, n)
	copy(p, r.data[r.off:r.off+int(n)])
	r.off += int(n)
	return p
}

func (r *walReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.data) {
		r.fail("truncated bool")
		return false
	}
	b := r.data[r.off]
	r.off++
	if b > 1 {
		r.fail("bad bool")
		return false
	}
	return b == 1
}

func (r *walReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", errWALDecode, len(r.data)-r.off)
	}
	return nil
}

// appendEntry encodes a put payload.
func appendEntry(b []byte, e Entry) []byte {
	b = appendU64(b, e.Key)
	b = appendOptBytes(b, e.Value)
	b = appendStr(b, e.Storage)
	b = appendStr(b, e.Access)
	b = appendU64(b, e.PtrID)
	b = appendStr(b, e.PtrName)
	b = appendStr(b, e.PtrAddr)
	b = binary.AppendUvarint(b, e.Version)
	return b
}

// decodeEntry decodes a put payload.
func decodeEntry(data []byte) (Entry, error) {
	r := &walReader{data: data}
	var e Entry
	e.Key = r.u64()
	e.Value = r.optBytes()
	e.Storage = r.str()
	e.Access = r.str()
	e.PtrID = r.u64()
	e.PtrName = r.str()
	e.PtrAddr = r.str()
	e.Version = r.uvarint()
	return e, r.done()
}

// appendDelete encodes a delete (tombstone) payload.
func appendDelete(b []byte, key uint64, storage, access string, pointer bool) []byte {
	b = appendU64(b, key)
	b = appendStr(b, storage)
	b = appendStr(b, access)
	b = appendBool(b, pointer)
	return b
}

// decodeDelete decodes a delete payload.
func decodeDelete(data []byte) (key uint64, storage, access string, pointer bool, err error) {
	r := &walReader{data: data}
	key = r.u64()
	storage = r.str()
	access = r.str()
	pointer = r.bool()
	return key, storage, access, pointer, r.done()
}
