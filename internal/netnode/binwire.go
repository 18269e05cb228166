package netnode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// The body codec. Every wire body's layout is written exactly once, as a
// field walk over a bidirectional coder:
//
//	func (q *fetchReq) wire(c *coder) { c.u64("Key", &q.Key); c.str("Origin", &q.Origin) }
//
// The same walk appends the body (AppendBinary), reads it back through the
// strict reader (UnmarshalBinary) and, in tests, states the layout as the
// (name, encoding) rows of docs/wire.schema.json and docs/WIRE.md — so an
// encoder and a decoder cannot disagree, and the documents are compared with
// what the code says rather than with what an analyzer infers. This file
// holds the coder and the routing and membership walks; the storage,
// geometry and key-value walks follow in binwire2.go to binwire4.go.
//
// Primitives (all multi-byte integers big-endian):
//
//   - u64: ring identifiers, keys and digests, fixed 8 bytes (they are
//     uniformly random, so varints would usually be longer)
//   - uvarint / uint: counts and versions, unsigned varints
//   - int: small signed integers (hops, levels — levels can be -1), zigzag
//     varints
//   - str: uvarint byte length, then the bytes
//   - optBytes and slice: uvarint n where 0 means absent (nil) and n means
//     length n-1 — preserving the nil/empty distinction
//   - bool: one byte, 0 or 1; flags: one byte of named bits, bit 0 first
//
// Decoding is strict: trailing bytes, truncated fields, overflowing lengths
// and undefined flag bits are errors, so a corrupted frame can never
// silently decode.

// errBinWire is wrapped by every binary decode failure in this package.
var errBinWire = errors.New("netnode: malformed binary payload")

// maxDecodePrealloc caps the capacity the slice primitive reserves up front
// from a wire-declared element count. The count itself is still honored —
// append grows past the cap if the payload really carries that many
// elements — but a hostile header claiming 2^60 elements over a few bytes of
// payload can not reserve gigabytes before the truncation error surfaces.
const maxDecodePrealloc = 4096

// Coder modes. Encode is the zero value: it is the hot one.
const (
	coderEncode = iota
	coderDecode
	coderDescribe
)

// coder carries one walk: the bytes appended so far, the reader consumed so
// far, or the layout rows noted so far.
type coder struct {
	mode  uint8
	b     []byte
	r     binReader
	rows  []transport.WireField
	depth int
}

func encoder(b []byte) coder    { return coder{b: b} }
func decoder(data []byte) coder { return coder{mode: coderDecode, r: binReader{data: data}} }

// note records one layout row at the current nesting depth.
func (c *coder) note(name, enc string, bits ...string) {
	c.rows = append(c.rows, transport.WireField{Depth: c.depth, Name: name, Enc: enc, Bits: bits})
}

func (c *coder) u64(name string, v *uint64) {
	switch c.mode {
	case coderEncode:
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	case coderDecode:
		*v = c.r.u64()
	default:
		c.note(name, "u64")
	}
}

func (c *coder) uvarint(name string, v *uint64) {
	switch c.mode {
	case coderEncode:
		c.b = binary.AppendUvarint(c.b, *v)
	case coderDecode:
		*v = c.r.uvarint()
	default:
		c.note(name, "uvarint")
	}
}

// uint is uvarint for a count held in an int.
func (c *coder) uint(name string, v *int) {
	switch c.mode {
	case coderEncode:
		c.b = binary.AppendUvarint(c.b, uint64(*v))
	case coderDecode:
		*v = int(c.r.uvarint())
	default:
		c.note(name, "uvarint")
	}
}

func (c *coder) int(name string, v *int) {
	switch c.mode {
	case coderEncode:
		c.b = binary.AppendVarint(c.b, int64(*v))
	case coderDecode:
		*v = int(c.r.varint())
	default:
		c.note(name, "varint")
	}
}

func (c *coder) str(name string, v *string) {
	switch c.mode {
	case coderEncode:
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))), *v...)
	case coderDecode:
		*v = c.r.str()
	default:
		c.note(name, "string")
	}
}

func (c *coder) optBytes(name string, v *[]byte) {
	switch c.mode {
	case coderEncode:
		if *v == nil {
			c.b = append(c.b, 0)
			return
		}
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*v))+1), *v...)
	case coderDecode:
		*v = c.r.optBytes()
	default:
		c.note(name, "optbytes")
	}
}

func (c *coder) bool(name string, v *bool) {
	switch c.mode {
	case coderEncode:
		if *v {
			c.b = append(c.b, 1)
		} else {
			c.b = append(c.b, 0)
		}
	case coderDecode:
		*v = c.r.byteBelow(2, "bool") == 1
	default:
		c.note(name, "bool")
	}
}

// flagBit is one named bit of a flags byte.
type flagBit struct {
	name string
	v    *bool
}

// flags packs the listed booleans into one byte, bit 0 first; a set bit
// beyond the listed ones is a decode error.
func (c *coder) flags(name string, bits ...flagBit) {
	switch c.mode {
	case coderEncode:
		var f byte
		for i, bit := range bits {
			if *bit.v {
				f |= 1 << i
			}
		}
		c.b = append(c.b, f)
	case coderDecode:
		f := c.r.byteBelow(1<<len(bits), "flags")
		for i, bit := range bits {
			*bit.v = f&(1<<i) != 0
		}
	default:
		names := make([]string, len(bits))
		for i, bit := range bits {
			names[i] = bit.name
		}
		c.note(name, "flags", names...)
	}
}

// slice walks a slice header and returns the number of elements the caller
// visits, in a loop of its own so that no function value is involved:
//
//	for i, n := 0, slice(c, "Items", &p.Items); c.more(i, n); i++ { at(c, &p.Items, i).wire(c) }
//
// It owns the nil/present scheme and — through the reader's count check and
// the cap on the reservation — every allocation sized by a wire count.
func slice[T any](c *coder, name string, s *[]T) int {
	switch c.mode {
	case coderEncode:
		if *s == nil {
			c.b = append(c.b, 0)
			return 0
		}
		c.b = binary.AppendUvarint(c.b, uint64(len(*s))+1)
		return len(*s)
	case coderDecode:
		n, present := c.r.sliceLen()
		if !present {
			*s = nil
			return 0
		}
		*s = make([]T, 0, min(n, maxDecodePrealloc))
		return n
	default:
		c.note(name, "slice")
		c.depth++
		*s = nil
		return 1 // one element states the element layout
	}
}

// more is the loop condition of a slice walk: decoding stops at the first
// error, describing after the one element.
func (c *coder) more(i, n int) bool {
	switch c.mode {
	case coderEncode:
		return i < n
	case coderDecode:
		return i < n && c.r.err == nil
	default:
		if i > 0 {
			c.depth--
		}
		return i == 0
	}
}

// at returns element i of a slice being walked; when decoding (and
// describing) it first appends the zero element the walk then fills.
func at[T any](c *coder, s *[]T, i int) *T {
	if c.mode != coderEncode {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
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

// optBytes decodes the nil/present scheme.
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

// byteBelow reads one byte that must be less than limit (a bool, a flags
// byte with its undefined bits clear).
func (r *binReader) byteBelow(limit int, what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated " + what)
		return 0
	}
	b := r.data[r.off]
	r.off++
	if int(b) >= limit {
		r.fail("bad " + what)
		return 0
	}
	return b
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

// ---- Info and Span, the two structures bodies embed ----

func (i *Info) wire(c *coder) {
	c.u64("ID", &i.ID)
	c.str("Name", &i.Name)
	c.str("Addr", &i.Addr)
}

func (i Info) AppendBinary(b []byte) ([]byte, error) { c := encoder(b); i.wire(&c); return c.b, nil }
func (i *Info) UnmarshalBinary(data []byte) error    { c := decoder(data); i.wire(&c); return c.r.done() }

// info walks an embedded Info.
func (c *coder) info(name string, i *Info) {
	if c.mode == coderDescribe {
		c.note(name, "struct")
		c.depth++
		i.wire(c)
		c.depth--
		return
	}
	i.wire(c)
}

func infos(c *coder, name string, s *[]Info) {
	for i, n := 0, slice(c, name, s); c.more(i, n); i++ {
		at(c, s, i).wire(c)
	}
}

// wireSpan is the walk of telemetry.Span (carried in the route header);
// Level is -1 on terminal spans.
func wireSpan(c *coder, s *telemetry.Span) {
	c.int("Hop", &s.Hop)
	c.u64("ID", &s.ID)
	c.int("Level", &s.Level)
	c.flags("flags", flagBit{"spanFlagRouteAround", &s.RouteAround}, flagBit{"spanFlagOwner", &s.Owner})
	c.str("Name", &s.Name)
	c.str("Addr", &s.Addr)
}

// wireRoute is the walk of the route header, the last fields of every routed
// body (lookup, get and put; request and response).
func wireRoute(c *coder, h *routeHeader) {
	c.int("Hops", &h.Hops)
	c.str("Trace", &h.Trace)
	for i, n := 0, slice(c, "Spans", &h.Spans); c.more(i, n); i++ {
		wireSpan(c, at(c, &h.Spans, i))
	}
}

// ---- lookup ----

func (q *lookupReq) wire(c *coder) {
	c.u64("Key", &q.Key)
	c.str("Prefix", &q.Prefix)
	wireRoute(c, &q.routeHeader)
}

func (p *lookupResp) wire(c *coder) {
	c.info("Pred", &p.Pred)
	c.info("Succ", &p.Succ)
	wireRoute(c, &p.routeHeader)
}

// ---- fetch ----

func (q *fetchReq) wire(c *coder) {
	c.u64("Key", &q.Key)
	c.str("Origin", &q.Origin)
}

func (v *fetchValue) wire(c *coder) {
	c.optBytes("Value", &v.Value)
	c.str("Access", &v.Access)
	c.info("Pointer", &v.Pointer)
}

func (p *fetchResp) wire(c *coder) {
	for i, n := 0, slice(c, "Values", &p.Values); c.more(i, n); i++ {
		at(c, &p.Values, i).wire(c)
	}
}

// ---- neighbors, notify ----

func (q *neighborsReq) wire(c *coder) { c.int("Level", &q.Level) }

func (p *neighborsResp) wire(c *coder) {
	c.info("Pred", &p.Pred)
	infos(c, "Succs", &p.Succs)
}

func (q *notifyReq) wire(c *coder) {
	c.int("Level", &q.Level)
	c.info("From", &q.From)
	c.bool("AsSuccessor", &q.AsSuccessor)
}

// ---- register, members, leaving ----

func (q *registerReq) wire(c *coder) {
	c.str("Prefix", &q.Prefix)
	c.info("From", &q.From)
}

func (q *membersReq) wire(c *coder) { c.str("Prefix", &q.Prefix) }

func (p *membersResp) wire(c *coder) { infos(c, "Members", &p.Members) }

func (q *leavingReq) wire(c *coder) {
	c.info("From", &q.From)
	infos(c, "Succs", &q.Succs)
}

// The two methods the transport calls. They are the same three statements
// for every body: the call to wire must be static, or the coder escapes to
// the heap and every encode allocates.

func (q lookupReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *lookupReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (p lookupResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *lookupResp) UnmarshalBinary(d []byte) error { c := decoder(d); p.wire(&c); return c.r.done() }

func (q fetchReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *fetchReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (p fetchResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *fetchResp) UnmarshalBinary(d []byte) error { c := decoder(d); p.wire(&c); return c.r.done() }

func (q neighborsReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *neighborsReq) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	q.wire(&c)
	return c.r.done()
}

func (p neighborsResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *neighborsResp) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	p.wire(&c)
	return c.r.done()
}

func (q notifyReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *notifyReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (q registerReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *registerReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (q membersReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *membersReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (p membersResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *membersResp) UnmarshalBinary(d []byte) error { c := decoder(d); p.wire(&c); return c.r.done() }

func (q leavingReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *leavingReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }
