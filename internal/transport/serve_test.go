package transport_test

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// barrierHandler returns a handler that holds every request until n have
// arrived, then answers them all; later requests are answered at once. A
// request still held after wait fails.
func barrierHandler(n int, wait time.Duration) transport.Handler {
	var arrived atomic.Int32
	all := make(chan struct{})
	return func(_ context.Context, from string, msg transport.Message) (transport.Message, error) {
		if _, _, err := net.SplitHostPort(from); err != nil {
			return transport.Message{}, fmt.Errorf("from %q is not host:port", from)
		}
		if arrived.Add(1) == int32(n) {
			close(all)
		}
		select {
		case <-all:
			return msg, nil
		case <-time.After(wait):
			return transport.Message{}, fmt.Errorf("held %v before all %d requests arrived", wait, n)
		}
	}
}

// callAll sends n concurrent requests from cli to addr and returns the
// errors, the handlers' included.
func callAll(cli transport.Transport, addr string, n int) []error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg, _ := transport.NewMessage("echo", echoBody{Text: fmt.Sprintf("r%d", i)})
			resp, err := cli.Call(context.Background(), addr, msg)
			if err == nil {
				err = resp.Err()
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	var out []error
	for err := range errs {
		out = append(out, err)
	}
	return out
}

// TestMuxServeNeverBlocksReader holds more concurrent requests than there
// are serve workers, each until the last of them has arrived over the same
// two connections. Were dispatch to wait for a free worker, the readers
// would stop and the last requests would never arrive.
func TestMuxServeNeverBlocksReader(t *testing.T) {
	n := 2*transport.MaxServeWorkers + 8
	srv, cli, _ := newTCPPair(t, barrierHandler(n, 10*time.Second))
	for _, err := range callAll(cli, srv.Addr(), n) {
		t.Error(err)
	}
	if got := transport.ServeWorkers(srv); got != transport.MaxServeWorkers {
		t.Errorf("serve workers = %d, want the cap %d", got, transport.MaxServeWorkers)
	}
}

// TestTCPCloseStopsServeWorkers: once the workers have served traffic, Close
// returns and every goroutine the two transports started exits.
func TestTCPCloseStopsServeWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const concurrent = 16
	srv.Serve(barrierHandler(concurrent, 10*time.Second))
	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range callAll(cli, srv.Addr(), concurrent) {
		t.Error(err)
	}
	for _, err := range callAll(cli, srv.Addr(), 4*concurrent) {
		t.Error(err)
	}
	if got := transport.ServeWorkers(srv); got < concurrent {
		t.Errorf("serve workers = %d after %d held requests, want at least %d", got, concurrent, concurrent)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Listen:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestInstrumentedServedCounts: canon_transport_served_total counts every
// served request under its type, past the bound of resolved types too.
func TestInstrumentedServedCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := transport.NewBus()
	srv := transport.WithTelemetry(bus.Endpoint("srv"), reg)
	srv.Serve(echoHandler)
	cli := bus.Endpoint("cli")
	const types = 100
	for i := 0; i < types; i++ {
		for j := 0; j <= i%3; j++ {
			if _, err := cli.Call(context.Background(), "srv", transport.Message{Type: fmt.Sprintf("t%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < types; i++ {
		typ := fmt.Sprintf("t%d", i)
		if got, want := reg.CounterValue("canon_transport_served_total", telemetry.L("type", typ)), int64(i%3+1); got != want {
			t.Errorf("served{type=%q} = %d, want %d", typ, got, want)
		}
	}
}
