package transport_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

// handshakeWith dials addr raw, offers the given version and returns the
// 4-byte accept.
func handshakeWith(t *testing.T, addr string, offer byte) [4]byte {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte{0xC4, 'C', 'N', offer}); err != nil {
		t.Fatal(err)
	}
	var accept [4]byte
	if _, err := io.ReadFull(c, accept[:]); err != nil {
		t.Fatalf("accept for offer %d: %v", offer, err)
	}
	return accept
}

// TestMuxVersionNegotiation pins the min(offered, own) handshake rule of
// docs/WIRE.md across a version bump: a current server must clamp newer
// offers to its own version and serve older offers at theirs, so mixed-
// version clusters keep talking during a rolling upgrade.
func TestMuxVersionNegotiation(t *testing.T) {
	srv, _, _ := newTCPPair(t, echoHandler)

	cases := []struct {
		offer, want byte
	}{
		{offer: 4, want: 4},  // current build's own offer
		{offer: 3, want: 3},  // older peer: serve its version
		{offer: 1, want: 1},  // oldest peer: serve its version
		{offer: 99, want: 4}, // newer peer: clamp to ours
	}
	for _, tc := range cases {
		accept := handshakeWith(t, srv.Addr(), tc.offer)
		if accept[0] != 0xC4 || accept[1] != 'C' || accept[2] != 'N' {
			t.Fatalf("offer %d: bad accept magic % x", tc.offer, accept)
		}
		if accept[3] != tc.want {
			t.Errorf("offer %d: negotiated version %d, want %d", tc.offer, accept[3], tc.want)
		}
	}
}

// TestMuxDialerAcceptsDowngrade runs a fake old server that answers the
// handshake with version 1 and echoes request envelopes back verbatim: the
// current dialer must treat the downgraded accept as success and complete
// calls over it, not error out — a current build dialing a v1 build is the
// normal rolling-upgrade state.
func TestMuxDialerAcceptsDowngrade(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		var hello [4]byte
		if _, err := io.ReadFull(br, hello[:]); err != nil {
			return
		}
		// An old build speaks version 1 regardless of the offer.
		if _, err := c.Write([]byte{0xC4, 'C', 'N', 1}); err != nil {
			return
		}
		for {
			kind, err := br.ReadByte()
			if err != nil || kind != 0x01 {
				return
			}
			var idb [8]byte
			if _, err := io.ReadFull(br, idb[:]); err != nil {
				return
			}
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return
			}
			env := make([]byte, n)
			if _, err := io.ReadFull(br, env); err != nil {
				return
			}
			// Echo the request envelope back as the response frame.
			out := append([]byte{0x02}, idb[:]...)
			out = binary.AppendUvarint(out, uint64(len(env)))
			out = append(out, env...)
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()

	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	msg, _ := transport.NewMessage("echo", echoBody{Text: "downgrade"})
	resp, err := cli.Call(ctx, ln.Addr().String(), msg)
	if err != nil {
		t.Fatalf("call over downgraded connection: %v", err)
	}
	var out echoBody
	if err := resp.Decode(&out); err != nil || out.Text != "downgrade" {
		t.Fatalf("echoed body = %q, err %v", out.Text, err)
	}
	if w := cli.PeerWire(ln.Addr().String()); w != transport.WireBinary {
		t.Errorf("negotiated wire = %q, want %q", w, transport.WireBinary)
	}
}
