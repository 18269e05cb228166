package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Binary wire-protocol constants. docs/WIRE.md is the authoritative
// specification; the values here must never change for a given version.
const (
	// muxMagic0/1/2 open the 4-byte connection hello "\xC4CN<version>".
	muxMagic0 = 0xC4
	muxMagic1 = 'C'
	muxMagic2 = 'N'
	// muxVersion is the one protocol version this build speaks. Both sides
	// of a connection state theirs in the handshake and a mismatch ends it:
	// framing, the envelope and every body layout in docs/WIRE.md belong to
	// this number, and any change to one of them changes it.
	muxVersion = 8

	// Frame kinds.
	frameRequest  = 0x01
	frameResponse = 0x02

	// Envelope flag bits.
	envHasNonce   = 1 << 0
	envHasError   = 1 << 1
	envHasPayload = 1 << 2
	envKnownFlags = envHasNonce | envHasError | envHasPayload
)

// WireVersion is muxVersion for the tests that pin docs/wire.schema.json and
// the golden wire bytes to it.
const WireVersion = muxVersion

// WireField is one row of a wire layout, as docs/wire.schema.json and the
// field tables of docs/WIRE.md state it. Body layouts are recorded by the
// field walks of internal/netnode; the envelope states its own below.
type WireField struct {
	// Depth is 0 for a layout's own fields and one more inside each embedded
	// structure or slice element.
	Depth int
	// Name is the Go field the value comes from; empty for a scalar slice
	// element.
	Name string
	// Enc is the encoding: u64, uvarint, varint, bool, string, bytes,
	// optbytes, flags, slice or struct.
	Enc string
	// Cond names the flag bit that gates the field's presence.
	Cond string
	// Bits names the defined bits of a flags byte, bit 0 first.
	Bits []string
}

// EnvelopeLayout is the envelope's schema entry. The envelope is the one
// layout with flag-conditional presence, so its codec below is written out
// by hand in both directions and this literal is the third statement of it;
// the round-trip, truncation and fuzz tests hold the two codecs together and
// the golden bytes and the schema test hold the literal to them.
var EnvelopeLayout = []WireField{
	{Name: "flags", Enc: "flags", Bits: []string{"envHasNonce", "envHasError", "envHasPayload"}},
	{Name: "Type", Enc: "string"},
	{Name: "Nonce", Enc: "string", Cond: "envHasNonce"},
	{Name: "Error", Enc: "string", Cond: "envHasError"},
	{Name: "Payload", Enc: "bytes", Cond: "envHasPayload"},
}

// errBadEnvelope is returned for structurally invalid binary envelopes.
var errBadEnvelope = errors.New("transport: malformed binary envelope")

// bufPool recycles encode/decode scratch buffers so steady-state framing
// allocates nothing on the send path.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return // don't let one huge frame pin memory forever
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// maxPooledBuf bounds the capacity of buffers returned to the pool.
const maxPooledBuf = 1 << 20

// appendUvarintBytes appends len(b) as a uvarint followed by b.
func appendUvarintBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// appendUvarintString appends len(s) as a uvarint followed by s.
func appendUvarintString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBinaryMessage appends the canonical binary envelope encoding of msg
// to buf and returns the extended slice. The payload is the binary form of
// msg.Body, or msg.Payload verbatim for a message that was itself decoded
// from the wire; a Body that is not a BinaryAppender is an encode error. The
// layout is specified in docs/WIRE.md.
func AppendBinaryMessage(buf []byte, msg Message) ([]byte, error) {
	var flags byte
	if msg.Nonce != "" {
		flags |= envHasNonce
	}
	if msg.Error != "" {
		flags |= envHasError
	}

	// Resolve the payload first so the flag byte is complete before any
	// variable-length field is written.
	payload := msg.Payload
	var payloadTmp *[]byte
	switch body := msg.Body.(type) {
	case nil:
	case BinaryAppender:
		tmp := getBuf()
		enc, err := body.AppendBinary(*tmp)
		if err != nil {
			putBuf(tmp)
			return nil, fmt.Errorf("transport: binary-marshal %s payload: %w", msg.Type, err)
		}
		*tmp = enc
		payload, payloadTmp = enc, tmp
	default:
		return nil, fmt.Errorf("transport: %s body %T has no binary codec", msg.Type, body)
	}
	if len(payload) > 0 {
		flags |= envHasPayload
	}

	buf = append(buf, flags)
	buf = appendUvarintString(buf, msg.Type)
	if flags&envHasNonce != 0 {
		buf = appendUvarintString(buf, msg.Nonce)
	}
	if flags&envHasError != 0 {
		buf = appendUvarintString(buf, msg.Error)
	}
	if flags&envHasPayload != 0 {
		buf = appendUvarintBytes(buf, payload)
	}
	if payloadTmp != nil {
		putBuf(payloadTmp)
	}
	return buf, nil
}

// DecodeBinaryMessage parses a binary envelope produced by
// AppendBinaryMessage. The returned Message owns its memory: the payload is
// copied out of data, so data may be a recycled frame buffer.
func DecodeBinaryMessage(data []byte) (Message, error) {
	if len(data) < 1 {
		return Message{}, errBadEnvelope
	}
	flags := data[0]
	if flags&^envKnownFlags != 0 {
		return Message{}, errBadEnvelope
	}
	rest := data[1:]

	readStr := func() (string, error) {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n > uint64(len(rest)-sz) {
			return "", errBadEnvelope
		}
		s := string(rest[sz : sz+int(n)])
		rest = rest[sz+int(n):]
		return s, nil
	}

	var msg Message
	var err error
	if msg.Type, err = readStr(); err != nil {
		return Message{}, err
	}
	if flags&envHasNonce != 0 {
		if msg.Nonce, err = readStr(); err != nil {
			return Message{}, err
		}
	}
	if flags&envHasError != 0 {
		if msg.Error, err = readStr(); err != nil {
			return Message{}, err
		}
	}
	if flags&envHasPayload != 0 {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n == 0 || n > uint64(len(rest)-sz) {
			return Message{}, errBadEnvelope
		}
		msg.Payload = append([]byte(nil), rest[sz:sz+int(n)]...)
		rest = rest[sz+int(n):]
	}
	if len(rest) != 0 {
		return Message{}, errBadEnvelope
	}
	return msg, nil
}
