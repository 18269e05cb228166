package transport_test

import (
	"context"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

// envelopeLayoutSeed synthesizes a minimal envelope from EnvelopeLayout, the
// schema entry the codec states beside itself: every flag bit set, every
// field one byte long. It ties the literal to the decoder — a field missing
// from it, out of order or under the wrong flag does not decode to four
// populated fields — and seeds the fuzz corpus with the full layout.
func envelopeLayoutSeed(tb testing.TB) []byte {
	tb.Helper()
	var b []byte
	for _, f := range transport.EnvelopeLayout {
		switch f.Enc {
		case "flags":
			b = append(b, 1<<len(f.Bits)-1)
		case "string", "bytes":
			b = append(b, 1, 'a')
		default:
			tb.Fatalf("EnvelopeLayout field %s has encoding %s, which this seed cannot build", f.Name, f.Enc)
		}
	}
	return b
}

// TestEnvelopeLayoutSeedDecodes proves the seed built from EnvelopeLayout is
// accepted by the real decoder with all optional fields populated.
func TestEnvelopeLayoutSeedDecodes(t *testing.T) {
	seed := envelopeLayoutSeed(t)
	msg, err := transport.DecodeBinaryMessage(seed)
	if err != nil {
		t.Fatalf("envelope layout seed (% x) does not decode: %v", seed, err)
	}
	if msg.Type == "" || msg.Nonce == "" || msg.Error == "" || len(msg.Payload) == 0 {
		t.Errorf("envelope layout seed decoded with optional fields missing: %+v", msg)
	}
}

// FuzzMessageDecode ensures arbitrary payload bytes never panic Decode.
func FuzzMessageDecode(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg := transport.Message{Type: "fuzz", Payload: payload}
		var strict binBody
		_ = msg.Decode(&strict) // must not panic
		var loose echoBody
		if err := msg.Decode(&loose); err != nil || loose.Text != string(payload) {
			t.Errorf("payload %q decoded to %q, err %v", payload, loose.Text, err)
		}
		var plain struct{ X int }
		if msg.Decode(&plain) == nil {
			t.Error("Decode into a value with no binary codec succeeded")
		}
	})
}

// FuzzEnvelopeRoundTrip requires decode(encode(x)) to equal x for every
// envelope the fuzzer can build — arbitrary bytes in every field, strings
// that are not UTF-8 included — whether the payload is framed from a typed
// Body or relayed as raw Payload bytes.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("lookup", "nonce-1", "", []byte("hello"))
	f.Add("", "", "remote boom", []byte{})
	f.Add("t\xff", "n\xc4", "e\x80", []byte{0x00, 0xff, 0xc4, 'C', 'N'})
	f.Fuzz(func(t *testing.T, msgType, nonce, errStr string, payload []byte) {
		want := transport.Message{Type: msgType, Nonce: nonce, Error: errStr}
		if len(payload) > 0 {
			want.Payload = payload
		}
		for _, in := range []transport.Message{
			want,
			{Type: msgType, Nonce: nonce, Error: errStr, Body: rawBinary(payload)},
		} {
			enc, err := transport.AppendBinaryMessage(nil, in)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := transport.DecodeBinaryMessage(enc)
			if err != nil {
				t.Fatalf("decode of own encoding: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip changed the envelope:\n  in:  %+v\n  out: %+v", want, got)
			}
		}
	})
}

// rawBinary is a Body whose binary form is its own bytes.
type rawBinary []byte

func (r rawBinary) AppendBinary(buf []byte) ([]byte, error) { return append(buf, r...), nil }

// FuzzBinaryMessageDecode ensures arbitrary envelope bytes never panic the
// decoder, and that anything it accepts re-encodes to bytes that decode to
// the same value.
func FuzzBinaryMessageDecode(f *testing.F) {
	if enc, err := transport.AppendBinaryMessage(nil, transport.Message{
		Type: "seed", Nonce: "n", Error: "e", Payload: []byte{1, 2, 3},
	}); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x01, 'a'})
	f.Add([]byte{0x0f, 0x01, 'a'}) // an undefined flag bit
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add(envelopeLayoutSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := transport.DecodeBinaryMessage(data)
		if err != nil {
			return
		}
		reenc, err := transport.AppendBinaryMessage(nil, msg)
		if err != nil {
			t.Fatalf("re-encode of accepted envelope: %v", err)
		}
		again, err := transport.DecodeBinaryMessage(reenc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Errorf("unstable round trip: %+v vs %+v", msg, again)
		}
	})
}

// FuzzMuxFrame completes a valid mux handshake and then throws raw bytes at
// the server's frame reader: malformed frames must be rejected without
// panics, hangs or resource leaks.
func FuzzMuxFrame(f *testing.F) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })
	srv.Serve(func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		return msg, nil
	})

	// kind + request ID + uvarint length + minimal envelope (flags=0, type "a")
	good := []byte{0x01, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0x00, 1, 'a'}
	f.Add(good)
	f.Add([]byte{0x02, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0x00})    // response kind at server
	f.Add([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff}) // absurd length varint
	f.Add([]byte{0xc4, 'C', 'N', wireVersion})              // a second hello mid-stream
	f.Fuzz(func(t *testing.T, raw []byte) {
		conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Skip("dial failed")
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := conn.Write([]byte{0xc4, 'C', 'N', wireVersion}); err != nil {
			t.Skip("handshake write failed")
		}
		var accept [4]byte
		if _, err := io.ReadFull(conn, accept[:]); err != nil {
			t.Skip("handshake read failed")
		}
		_, _ = conn.Write(raw)
		buf := make([]byte, 1024)
		_, _ = conn.Read(buf) // response, close or timeout; all fine
	})
}
