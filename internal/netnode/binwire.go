package netnode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// Binary marshaling for the routing and membership payloads (lookup, fetch,
// ping, neighbors, notify, register, members, leaving); the storage,
// geometry and key-value payloads follow in binwire2.go to binwire4.go.
//
// Every wire body implements transport.BinaryAppender +
// encoding.BinaryUnmarshaler: that pair is the only body codec, in the form
// specified in docs/WIRE.md. Conventions (all multi-byte integers big-endian):
//
//   - ring identifiers and keys: fixed 8 bytes (they are uniformly random,
//     so varints would usually be longer)
//   - counts and lengths: unsigned varints
//   - small signed integers (hops, levels — levels can be -1): signed
//     varints (zigzag)
//   - strings: uvarint byte length, then the bytes
//   - optional byte slices and slices: uvarint n where 0 means absent (nil)
//     and n means length n-1 — preserving the nil/empty distinction
//   - booleans: one byte, 0 or 1
//
// Decoders are strict: trailing bytes, truncated fields and overflowing
// lengths are errors, so a corrupted frame can never silently decode.

// errBinWire is wrapped by every binary decode failure in this file.
var errBinWire = errors.New("netnode: malformed binary payload")

// maxDecodePrealloc caps the capacity a decoder reserves up front from a
// wire-declared element count. The count itself is still honored — append
// grows past the cap if the payload really carries that many elements — but
// a hostile header claiming 2^60 elements over a few bytes of payload can
// no longer reserve gigabytes before the truncation error surfaces.
const maxDecodePrealloc = 4096

// Compile-time interface checks for the payloads encoded in this file.
var (
	_ transport.BinaryAppender = Info{}
	_ transport.BinaryAppender = lookupReq{}
	_ transport.BinaryAppender = lookupResp{}
	_ transport.BinaryAppender = fetchReq{}
	_ transport.BinaryAppender = fetchResp{}
	_ transport.BinaryAppender = neighborsReq{}
	_ transport.BinaryAppender = neighborsResp{}
	_ transport.BinaryAppender = notifyReq{}
	_ transport.BinaryAppender = registerReq{}
	_ transport.BinaryAppender = membersReq{}
	_ transport.BinaryAppender = membersResp{}
	_ transport.BinaryAppender = leavingReq{}
)

// ---- append helpers ----

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

// appendSliceLen encodes a slice header with the same nil/present scheme.
func appendSliceLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return binary.AppendUvarint(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---- strict reader ----

// binReader decodes the conventions above; the first failure latches and
// every later read returns zero values.
type binReader struct {
	data []byte
	off  int
	err  error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errBinWire, what, r.off)
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

func (r *binReader) uvarint() uint64 {
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

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) str() string {
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

// optBytes decodes the nil/present scheme of appendOptBytes.
func (r *binReader) optBytes() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(r.data)-r.off) {
		r.fail("bytes overflow buffer")
		return nil
	}
	// make (not append to nil) so an empty-but-present slice stays non-nil,
	// preserving the encoded nil/present distinction exactly.
	p := make([]byte, n)
	copy(p, r.data[r.off:r.off+int(n)])
	r.off += int(n)
	return p
}

// sliceLen decodes a slice header: present reports nil (false) vs non-nil.
func (r *binReader) sliceLen() (n int, present bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, false
	}
	if v-1 > uint64(len(r.data)-r.off) {
		// Every element takes at least one byte; a count beyond the
		// remaining bytes is corrupt and must not pre-allocate.
		r.fail("slice count overflows buffer")
		return 0, false
	}
	return int(v - 1), true
}

func (r *binReader) bool() bool {
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

// done returns the latched error, or an error if bytes remain.
func (r *binReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", errBinWire, len(r.data)-r.off)
	}
	return nil
}

// ---- Info ----

// AppendBinary implements transport.BinaryAppender.
func (i Info) AppendBinary(b []byte) ([]byte, error) {
	b = appendU64(b, i.ID)
	b = appendStr(b, i.Name)
	b = appendStr(b, i.Addr)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (i *Info) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	i.readFrom(r)
	return r.done()
}

func (i Info) appendTo(b []byte) []byte {
	b, _ = i.AppendBinary(b)
	return b
}

func (i *Info) readFrom(r *binReader) {
	i.ID = r.u64()
	i.Name = r.str()
	i.Addr = r.str()
}

func appendInfos(b []byte, infos []Info) []byte {
	b = appendSliceLen(b, len(infos), infos == nil)
	for _, i := range infos {
		b = i.appendTo(b)
	}
	return b
}

func readInfos(r *binReader) []Info {
	n, present := r.sliceLen()
	if !present {
		return nil
	}
	out := make([]Info, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		var i Info
		i.readFrom(r)
		out = append(out, i)
	}
	return out
}

// ---- telemetry spans (carried inside lookup messages) ----

const (
	spanFlagRouteAround = 1 << 0
	spanFlagOwner       = 1 << 1
)

func appendSpan(b []byte, s telemetry.Span) []byte {
	b = binary.AppendVarint(b, int64(s.Hop))
	b = appendU64(b, s.ID)
	b = binary.AppendVarint(b, int64(s.Level)) // -1 on terminal spans
	var flags byte
	if s.RouteAround {
		flags |= spanFlagRouteAround
	}
	if s.Owner {
		flags |= spanFlagOwner
	}
	b = append(b, flags)
	b = appendStr(b, s.Name)
	b = appendStr(b, s.Addr)
	return b
}

func readSpan(r *binReader) telemetry.Span {
	var s telemetry.Span
	s.Hop = int(r.varint())
	s.ID = r.u64()
	s.Level = int(r.varint())
	if r.err == nil && r.off < len(r.data) {
		flags := r.data[r.off]
		r.off++
		if flags&^(spanFlagRouteAround|spanFlagOwner) != 0 {
			r.fail("bad span flags")
		}
		s.RouteAround = flags&spanFlagRouteAround != 0
		s.Owner = flags&spanFlagOwner != 0
	} else {
		r.fail("truncated span flags")
	}
	s.Name = r.str()
	s.Addr = r.str()
	return s
}

func appendSpans(b []byte, spans []telemetry.Span) []byte {
	b = appendSliceLen(b, len(spans), spans == nil)
	for _, s := range spans {
		b = appendSpan(b, s)
	}
	return b
}

func readSpans(r *binReader) []telemetry.Span {
	n, present := r.sliceLen()
	if !present {
		return nil
	}
	spans := make([]telemetry.Span, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		spans = append(spans, readSpan(r))
	}
	return spans
}

// ---- lookup ----

// AppendBinary implements transport.BinaryAppender.
func (q lookupReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendU64(b, q.Key)
	b = appendStr(b, q.Prefix)
	b = binary.AppendVarint(b, int64(q.Hops))
	b = appendStr(b, q.Trace)
	b = appendSpans(b, q.Spans)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *lookupReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Key = r.u64()
	q.Prefix = r.str()
	q.Hops = int(r.varint())
	q.Trace = r.str()
	q.Spans = readSpans(r)
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p lookupResp) AppendBinary(b []byte) ([]byte, error) {
	b = p.Pred.appendTo(b)
	b = p.Succ.appendTo(b)
	b = binary.AppendVarint(b, int64(p.Hops))
	b = appendStr(b, p.Trace)
	b = appendSpans(b, p.Spans)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *lookupResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Pred.readFrom(r)
	p.Succ.readFrom(r)
	p.Hops = int(r.varint())
	p.Trace = r.str()
	p.Spans = readSpans(r)
	return r.done()
}

// ---- fetch ----

// AppendBinary implements transport.BinaryAppender.
func (q fetchReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendU64(b, q.Key)
	b = appendStr(b, q.Origin)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *fetchReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Key = r.u64()
	q.Origin = r.str()
	return r.done()
}

func appendFetchValue(b []byte, v fetchValue) []byte {
	b = appendOptBytes(b, v.Value)
	b = appendStr(b, v.Access)
	b = v.Pointer.appendTo(b)
	return b
}

func readFetchValue(r *binReader) fetchValue {
	var v fetchValue
	v.Value = r.optBytes()
	v.Access = r.str()
	v.Pointer.readFrom(r)
	return v
}

// AppendBinary implements transport.BinaryAppender.
func (p fetchResp) AppendBinary(b []byte) ([]byte, error) {
	b = appendSliceLen(b, len(p.Values), p.Values == nil)
	for _, v := range p.Values {
		b = appendFetchValue(b, v)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *fetchResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	n, present := r.sliceLen()
	if !present {
		p.Values = nil
		return r.done()
	}
	p.Values = make([]fetchValue, 0, min(n, maxDecodePrealloc))
	for j := 0; j < n && r.err == nil; j++ {
		p.Values = append(p.Values, readFetchValue(r))
	}
	return r.done()
}

// ---- neighbors ----

// AppendBinary implements transport.BinaryAppender.
func (q neighborsReq) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(q.Level))
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *neighborsReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Level = int(r.varint())
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p neighborsResp) AppendBinary(b []byte) ([]byte, error) {
	b = p.Pred.appendTo(b)
	b = appendInfos(b, p.Succs)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *neighborsResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Pred.readFrom(r)
	p.Succs = readInfos(r)
	return r.done()
}

// ---- notify ----

// AppendBinary implements transport.BinaryAppender.
func (q notifyReq) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(q.Level))
	b = q.From.appendTo(b)
	b = appendBool(b, q.AsSuccessor)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *notifyReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Level = int(r.varint())
	q.From.readFrom(r)
	q.AsSuccessor = r.bool()
	return r.done()
}

// ---- register / members ----

// AppendBinary implements transport.BinaryAppender.
func (q registerReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendStr(b, q.Prefix)
	b = q.From.appendTo(b)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *registerReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Prefix = r.str()
	q.From.readFrom(r)
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (q membersReq) AppendBinary(b []byte) ([]byte, error) {
	b = appendStr(b, q.Prefix)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *membersReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.Prefix = r.str()
	return r.done()
}

// AppendBinary implements transport.BinaryAppender.
func (p membersResp) AppendBinary(b []byte) ([]byte, error) {
	return appendInfos(b, p.Members), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *membersResp) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	p.Members = readInfos(r)
	return r.done()
}

// ---- leaving ----

// AppendBinary implements transport.BinaryAppender.
func (q leavingReq) AppendBinary(b []byte) ([]byte, error) {
	b = q.From.appendTo(b)
	b = appendInfos(b, q.Succs)
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *leavingReq) UnmarshalBinary(data []byte) error {
	r := &binReader{data: data}
	q.From.readFrom(r)
	q.Succs = readInfos(r)
	return r.done()
}
