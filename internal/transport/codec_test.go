package transport_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// TestBinaryMessageRoundTrip covers the envelope codec across every flag
// combination: type only, nonce, error, payload, and combinations.
func TestBinaryMessageRoundTrip(t *testing.T) {
	cases := []transport.Message{
		{Type: "ping"},
		{Type: "lookup", Nonce: "abc123"},
		{Type: "error", Error: "boom: something broke"},
		{Type: "echo", Payload: []byte(`{"text":"hello"}`)},
		{Type: "full", Nonce: "n-1", Error: "partial failure", Payload: []byte(`[1,2,3]`)},
		{Type: strings.Repeat("t", 300), Nonce: strings.Repeat("n", 300)}, // multi-byte varint lengths
		{Type: "big", Payload: bytes.Repeat([]byte(`x`), 100_000)},
	}
	for _, want := range cases {
		enc, err := transport.AppendBinaryMessage(nil, want)
		if err != nil {
			t.Fatalf("encode %q: %v", want.Type, err)
		}
		got, err := transport.DecodeBinaryMessage(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", want.Type, err)
		}
		if got.Type != want.Type || got.Nonce != want.Nonce || got.Error != want.Error {
			t.Errorf("round trip of %q changed header fields: got %+v", want.Type, got)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip of %q changed payload: got %d bytes, want %d", want.Type, len(got.Payload), len(want.Payload))
		}
	}
}

// binBody is a fixed-width payload with a strict decoder, for exercising
// the envelope's body path without importing netnode.
type binBody struct {
	X uint32
}

func (b binBody) AppendBinary(buf []byte) ([]byte, error) {
	return append(buf, byte(b.X>>24), byte(b.X>>16), byte(b.X>>8), byte(b.X)), nil
}

func (b *binBody) UnmarshalBinary(data []byte) error {
	if len(data) != 4 {
		return transport.ErrUnreachable // any error will do for the test
	}
	b.X = uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
	return nil
}

// TestBinaryMessageBinaryBody verifies that a Body implementing
// BinaryAppender travels in binary form and decodes through
// encoding.BinaryUnmarshaler.
func TestBinaryMessageBinaryBody(t *testing.T) {
	msg, err := transport.NewMessage("bin", binBody{X: 0xDEADBEEF})
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Payload) != 0 {
		t.Fatalf("body should stay unencoded until framed, got %q", msg.Payload)
	}
	enc, err := transport.AppendBinaryMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := transport.DecodeBinaryMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	var out binBody
	if err := got.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.X != 0xDEADBEEF {
		t.Errorf("decoded %#x", out.X)
	}

	// An in-process delivery decodes the same message straight from Body.
	var inproc binBody
	if err := msg.Decode(&inproc); err != nil {
		t.Fatal(err)
	}
	if inproc.X != 0xDEADBEEF {
		t.Errorf("in-process decode produced %#x", inproc.X)
	}

	// A relayed message (Payload, no Body) re-encodes to the same bytes.
	relayed, err := transport.AppendBinaryMessage(nil, got)
	if err != nil || !bytes.Equal(relayed, enc) {
		t.Errorf("relayed envelope = % x (err %v), want % x", relayed, err, enc)
	}
}

// TestBinaryMessageTruncations ensures every truncation of a valid envelope
// errors instead of panicking or silently decoding.
func TestBinaryMessageTruncations(t *testing.T) {
	msg := transport.Message{Type: "lookup", Nonce: "nonce-1", Error: "err", Payload: []byte(`{"k":1}`)}
	enc, err := transport.AppendBinaryMessage(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := transport.DecodeBinaryMessage(enc[:i]); err == nil {
			// A prefix that happens to be a complete envelope is only
			// acceptable if it really parses shorter fields; the payload
			// flag makes trailing-byte checks strict, so any nil error here
			// is a bug.
			t.Errorf("truncation to %d bytes decoded without error", i)
		}
	}
	// A flag bit this version does not define is malformed, not ignored.
	enc[0] |= 1 << 3
	if _, err := transport.DecodeBinaryMessage(enc); err == nil {
		t.Error("envelope with an undefined flag bit decoded without error")
	}
}
