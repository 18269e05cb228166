package transport_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// newTCPPair returns a served server and a client whose mux metrics land in
// the returned registry.
func newTCPPair(t *testing.T, h transport.Handler) (*transport.TCP, *transport.TCP, *telemetry.Registry) {
	t.Helper()
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	srv.Serve(h)

	reg := telemetry.NewRegistry()
	cli, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return srv, cli, reg
}

// TestMuxConcurrentInFlight drives 64 concurrent callers at one peer over the
// mux and checks that every response reaches its caller untangled and that the
// connection count stayed at two per peer (multiplexing, not conn-per-call).
func TestMuxConcurrentInFlight(t *testing.T) {
	srv, cli, reg := newTCPPair(t, echoHandler)

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				msg, _ := transport.NewMessage("echo", echoBody{Text: fmt.Sprintf("c%d-%d", i, j)})
				resp, err := cli.Call(context.Background(), srv.Addr(), msg)
				if err != nil {
					errs <- err
					return
				}
				var out echoBody
				if err := resp.Decode(&out); err != nil {
					errs <- err
					return
				}
				if want := fmt.Sprintf("echo:c%d-%d", i, j); out.Text != want {
					errs <- fmt.Errorf("caller %d got %q, want %q", i, out.Text, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if dials := reg.CounterValue("canon_transport_mux_dials_total"); dials > 2 {
		t.Errorf("dials = %d, want <= 2 per peer: calls must multiplex", dials)
	}
	if reuse := reg.CounterValue("canon_transport_mux_conn_reuse_total"); reuse == 0 {
		t.Error("conn reuse counter stayed 0 across 512 calls")
	}
	sent := reg.CounterValue("canon_transport_mux_frames_total", telemetry.L("dir", "send"))
	recv := reg.CounterValue("canon_transport_mux_frames_total", telemetry.L("dir", "recv"))
	if sent < callers || recv < callers {
		t.Errorf("frame counters sent=%d recv=%d, want >= %d each", sent, recv, callers)
	}
}

// TestMuxResponseTooLarge has the handler return a body beyond the frame
// bound: the caller must get an error envelope under its request ID promptly,
// not wait out its deadline, and the connection must stay usable.
func TestMuxResponseTooLarge(t *testing.T) {
	h := func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		var in echoBody
		if err := msg.Decode(&in); err != nil {
			return transport.Message{}, err
		}
		if in.Text == "big" {
			in.Text = strings.Repeat("x", 16<<20+1)
		}
		return transport.NewMessage("reply", in)
	}
	srv, cli, _ := newTCPPair(t, h)

	const callTimeout = 30 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	start := time.Now()
	msg, _ := transport.NewMessage("q", echoBody{Text: "big"})
	resp, err := cli.Call(ctx, srv.Addr(), msg)
	if err != nil {
		t.Fatalf("call: %v (want an error reply, not a transport failure)", err)
	}
	if !strings.Contains(resp.Error, "response too large") {
		t.Errorf("reply error = %q, want \"response too large\"", resp.Error)
	}
	if took := time.Since(start); took > callTimeout/3 {
		t.Errorf("error reply took %v of a %v deadline", took, callTimeout)
	}

	msg, _ = transport.NewMessage("q", echoBody{Text: "small"})
	resp, err = cli.Call(ctx, srv.Addr(), msg)
	var out echoBody
	if err != nil || resp.Decode(&out) != nil || out.Text != "small" {
		t.Errorf("call after the oversized reply: %q, err %v", out.Text, err)
	}
}

// TestMuxResilienceUnderLoss is the shared-connection retry/dedup soak: a
// faulty wrapper drops 20% of calls (half request drops, half response drops)
// over a multiplexed transport, callers retry with stable nonces, and
// the server's dedup layer must keep handler execution at-most-once per nonce
// even though all requests share a handful of connections.
func TestMuxResilienceUnderLoss(t *testing.T) {
	var (
		mu   sync.Mutex
		runs = make(map[string]int) // nonce -> handler executions
	)
	inner := func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		mu.Lock()
		runs[msg.Nonce]++
		mu.Unlock()
		return transport.NewMessage("ok", echoBody{Text: msg.Nonce})
	}
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(transport.DedupHandler(inner, 4096))

	tcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	cli := transport.NewFaulty(tcp, 42, transport.Faults{Drop: 0.20})

	const (
		requests = 512
		workers  = 16
		maxTries = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < requests; i += workers {
				nonce := fmt.Sprintf("req-%04d", i)
				msg, _ := transport.NewMessage("work", echoBody{Text: nonce})
				msg.Nonce = nonce
				var lastErr error
				ok := false
				for try := 0; try < maxTries; try++ {
					resp, err := cli.Call(context.Background(), srv.Addr(), msg)
					if err != nil {
						lastErr = err
						continue
					}
					var out echoBody
					if err := resp.Decode(&out); err != nil {
						lastErr = err
						continue
					}
					if out.Text != nonce {
						errs <- fmt.Errorf("nonce %s answered with %q", nonce, out.Text)
					}
					ok = true
					break
				}
				if !ok {
					errs <- fmt.Errorf("nonce %s never succeeded: %v", nonce, lastErr)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(runs) != requests {
		t.Errorf("handler saw %d distinct nonces, want %d", len(runs), requests)
	}
	for nonce, n := range runs {
		if n != 1 {
			t.Errorf("nonce %s executed %d times, want exactly 1 (dedup must hold on shared conns)", nonce, n)
		}
	}
}

// TestMuxServerSurvivesGarbage completes a valid handshake, then writes junk:
// the server must drop the connection without disturbing other peers.
func TestMuxServerSurvivesGarbage(t *testing.T) {
	srv, cli, _ := newTCPPair(t, echoHandler)

	c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	hello := []byte{0xC4, 'C', 'N', wireVersion}
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	var accept [4]byte
	if _, err := io.ReadFull(c, accept[:]); err != nil {
		t.Fatalf("handshake accept: %v", err)
	}
	if accept[0] != 0xC4 || accept[3] != wireVersion {
		t.Fatalf("accept = % x", accept)
	}
	// Not a request frame: the server must hang up, not crash or stall.
	if _, err := c.Write([]byte{0xFF, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := c.Read(buf); err == nil {
		t.Error("server answered a garbage frame instead of closing")
	}

	// The listener and other connections keep working.
	msg, _ := transport.NewMessage("echo", echoBody{Text: "still-alive"})
	resp, err := cli.Call(context.Background(), srv.Addr(), msg)
	if err != nil {
		t.Fatalf("call after garbage connection: %v", err)
	}
	var out echoBody
	if err := resp.Decode(&out); err != nil || out.Text != "echo:still-alive" {
		t.Errorf("got %q, err %v", out.Text, err)
	}
}

// TestMuxRedialAfterPeerDeath kills the server mid-conversation and checks
// that calls to the dead peer fail with ErrUnreachable instead of hanging on
// the broken multiplexed connection.
func TestMuxRedialAfterPeerDeath(t *testing.T) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(echoHandler)
	addr := srv.Addr()

	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	msg, _ := transport.NewMessage("echo", echoBody{Text: "a"})
	if _, err := cli.Call(context.Background(), addr, msg); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = cli.Call(ctx, addr, msg)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls to a dead peer kept succeeding")
		}
	}
	if !errors.Is(err, transport.ErrUnreachable) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("dead peer error = %v, want ErrUnreachable", err)
	}
}
