package transport

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Binary wire-protocol constants. docs/WIRE.md is the authoritative
// specification; the values here must never change for a given version.
const (
	// muxMagic0/1/2 open the 4-byte connection hello "\xC4CN<version>".
	// 0xC4 can never begin a legacy JSON frame: legacy frames start with a
	// 4-byte big-endian length bounded by maxFrameBytes (16 MiB), so their
	// first byte is 0x00 or 0x01. A legacy server reading the hello as a
	// length sees ~3.3 GiB, rejects the frame and closes the connection —
	// which is exactly the downgrade signal a new dialer listens for.
	muxMagic0 = 0xC4
	muxMagic1 = 'C'
	muxMagic2 = 'N'
	// muxVersion is the highest binary protocol version this build speaks.
	// The dialer offers its highest; the acceptor replies with
	// min(offered, own); both sides then speak the replied version. A
	// dialer therefore accepts any reply from 1 up to its own offer.
	//
	// Version 2 changes no framing: it marks the builds that understand
	// the storage/anti-entropy message types ("store2", "synctree",
	// "synckeys", "syncpull", "repair") introduced in docs/WIRE.md §v2. A
	// v1 peer on a negotiated-v1 connection simply never receives them.
	// Version 3 likewise changes no framing: it marks the builds that
	// understand the geometry maintenance message types ("bucketref",
	// "lookahead") introduced in docs/WIRE.md §9, and version 4 the builds
	// that understand the routed key-value operations ("get", "put") of
	// docs/WIRE.md §10.
	muxVersion = 4

	// Frame kinds.
	frameRequest  = 0x01
	frameResponse = 0x02

	// Envelope flag bits.
	envHasNonce      = 1 << 0
	envHasError      = 1 << 1
	envHasPayload    = 1 << 2
	envPayloadBinary = 1 << 3
)

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
// to buf and returns the extended slice. Bodies implementing BinaryAppender
// (or encoding.BinaryMarshaler) are encoded in their binary form with the
// payload-binary flag set; all other payloads are carried as JSON bytes
// inside the binary envelope. The layout is specified in docs/WIRE.md.
func AppendBinaryMessage(buf []byte, msg Message) ([]byte, error) {
	var flags byte
	if msg.Nonce != "" {
		flags |= envHasNonce
	}
	if msg.Error != "" {
		flags |= envHasError
	}

	// Resolve the payload form first so the flag byte is complete before any
	// variable-length field is written.
	var (
		payload     []byte
		fromBody    bool
		payloadTmp  *[]byte
		payloadJSON []byte
	)
	switch body := msg.Body.(type) {
	case BinaryAppender:
		tmp := getBuf()
		enc, err := body.AppendBinary(*tmp)
		if err != nil {
			putBuf(tmp)
			return nil, fmt.Errorf("transport: binary-marshal %s payload: %w", msg.Type, err)
		}
		*tmp = enc
		payload, payloadTmp, fromBody = enc, tmp, true
	case encoding.BinaryMarshaler:
		enc, err := body.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("transport: binary-marshal %s payload: %w", msg.Type, err)
		}
		payload, fromBody = enc, true
	default:
		raw, err := msg.jsonPayload()
		if err != nil {
			return nil, err
		}
		payloadJSON = raw
	}
	if fromBody {
		flags |= envPayloadBinary
		if len(payload) > 0 {
			flags |= envHasPayload
		}
	} else if len(payloadJSON) > 0 {
		flags |= envHasPayload
		payload = payloadJSON
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
	if flags&envPayloadBinary != 0 {
		msg.PayloadCodec = PayloadBinary
	}
	return msg, nil
}
