package transport_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// wireVersion is the version byte of this build's mux hello (docs/WIRE.md
// §1.1), restated here so the tests speak the handshake from outside.
const wireVersion = 8

// rawConn dials addr, writes first and returns everything the server sends
// back before it closes the connection (or the 2 s deadline passes).
func rawConn(t *testing.T, addr string, first []byte) []byte {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write(first); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("server kept the connection open after % x: %v", first, err)
	}
	return got
}

// TestMuxHandshakeVersions pins the one-version rule of docs/WIRE.md §6 from
// both ends: the acceptor always states its own version and serves only a
// dialer that offered the same, and the dialer refuses any other answer with
// an ErrUnreachable naming both numbers.
func TestMuxHandshakeVersions(t *testing.T) {
	srv, cli, _ := newTCPPair(t, echoHandler)
	own := []byte{0xC4, 'C', 'N', wireVersion}

	// Same version: the connection is accepted and carries frames.
	msg, _ := transport.NewMessage("echo", echoBody{Text: "v"})
	if _, err := cli.Call(context.Background(), srv.Addr(), msg); err != nil {
		t.Fatalf("same-version call: %v", err)
	}

	// Any other offer, version 0 included: the accept names the server's
	// version and the connection is closed behind it.
	for _, offer := range []byte{0, wireVersion - 1, wireVersion + 1, 99} {
		if got := rawConn(t, srv.Addr(), []byte{0xC4, 'C', 'N', offer}); !bytes.Equal(got, own) {
			t.Errorf("offer %d: server sent % x then closed, want % x", offer, got, own)
		}
	}

	// A peer answering with another version is refused by the dialer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(c, hello[:]); err == nil {
				_, _ = c.Write([]byte{0xC4, 'C', 'N', wireVersion - 1})
			}
			_ = c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err = cli.Call(ctx, ln.Addr().String(), msg)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to a version-%d peer: err = %v, want ErrUnreachable", wireVersion-1, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("version %d", wireVersion-1)) || !strings.Contains(err.Error(), fmt.Sprintf("speaks %d", wireVersion)) {
		t.Errorf("error %q does not name both versions", err)
	}
}

// TestMuxRejectsNonMuxConnections sends the server what is not a mux hello —
// a pre-mux length-prefixed JSON frame, random garbage, a truncated hello —
// and requires each connection to be closed unanswered and counted while
// the server keeps serving real peers.
func TestMuxRejectsNonMuxConnections(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(echoHandler)

	body := `{"type":"ping"}`
	legacy := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	legacy = append(legacy, body...)
	inputs := [][]byte{
		legacy,
		{0xde, 0xad, 0xbe, 0xef, 0x00, 0x17},
		{0xC4, 'C', 'X', wireVersion},
		{0xC4, 'C'}, // closed mid-hello
	}
	for _, in := range inputs {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write(in); err != nil {
			t.Fatal(err)
		}
		if len(in) < 4 {
			_ = c.(*net.TCPConn).CloseWrite()
		}
		if got, err := io.ReadAll(c); err != nil || len(got) != 0 {
			t.Errorf("input % x: server answered % x (err %v), want a bare close", in, got, err)
		}
		_ = c.Close()
	}
	if n := reg.CounterValue("canon_transport_mux_rejected_total"); n != int64(len(inputs)) {
		t.Errorf("rejected counter = %d, want %d", n, len(inputs))
	}

	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	msg, _ := transport.NewMessage("echo", echoBody{Text: "still-alive"})
	resp, err := cli.Call(context.Background(), srv.Addr(), msg)
	var out echoBody
	if err != nil || resp.Decode(&out) != nil || out.Text != "echo:still-alive" {
		t.Errorf("call after rejected connections: %q, err %v", out.Text, err)
	}
}
