package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
)

// maxFrameBytes bounds a single message frame; larger frames indicate a
// protocol error or abuse.
const maxFrameBytes = 16 << 20

// defaultDialTimeout bounds connection establishment when the caller's
// context has no deadline.
const defaultDialTimeout = 5 * time.Second

// connsPerPeer is how many multiplexed connections are kept per peer; calls
// round-robin across them.
const connsPerPeer = 2

// TCPOptions tunes a TCP transport. The zero value meters into a private
// (unexposed) telemetry registry.
type TCPOptions struct {
	// Telemetry, when set, receives the canon_transport_mux_* series
	// (dials, connection reuse, in-flight requests, rejected connections,
	// frame counters). Nil meters into a private registry.
	Telemetry *telemetry.Registry
}

// TCP is a Transport over TCP speaking the multiplexed binary protocol of
// docs/WIRE.md: a few persistent connections per peer, each carrying many
// tagged in-flight requests.
type TCP struct {
	listener net.Listener
	addr     string
	metrics  muxMetrics

	mu       sync.Mutex
	dialCond *sync.Cond // signaled when a mux dial settles
	handler  Handler
	muxConns map[string]*muxPeer // mux conns, per peer
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// Serve workers (see dispatch): an idle worker waits on serveJobs,
	// stopWorkers is closed by Close, and serveWorkers counts the workers
	// started, up to maxServeWorkers.
	serveJobs    chan serveJob
	stopWorkers  chan struct{}
	serveWorkers atomic.Int32
}

var _ Transport = (*TCP)(nil)

// muxPeer is the per-peer set of multiplexed connections; calls round-robin
// across up to connsPerPeer of them. dialing counts handshakes in flight so
// concurrent first contacts never dial more than connsPerPeer sockets total
// (no thundering herd: latecomers wait on TCP.dialCond for a slot to settle).
type muxPeer struct {
	conns   []*muxConn
	next    int
	dialing int
}

// ListenTCP starts a TCP transport on the given address ("host:port"; ":0"
// picks a free port) with default options.
func ListenTCP(addr string) (*TCP, error) {
	return ListenTCPOpts(addr, TCPOptions{})
}

// ListenTCPOpts starts a TCP transport with explicit options.
func ListenTCPOpts(addr string, opts TCPOptions) (*TCP, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &TCP{
		listener:    l,
		addr:        l.Addr().String(),
		metrics:     newMuxMetrics(reg),
		muxConns:    make(map[string]*muxPeer),
		conns:       make(map[net.Conn]struct{}),
		serveJobs:   make(chan serveJob),
		stopWorkers: make(chan struct{}),
	}
	t.dialCond = sync.NewCond(&t.mu)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport.
func (t *TCP) Addr() string { return t.addr }

// Serve implements Transport.
func (t *TCP) Serve(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.listener.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// serveConn serves one accepted connection, which must open with the mux
// hello. Anything else — a pre-mux JSON frame, a port scan, garbage — is
// input from outside the cluster: it is counted and the connection closed.
func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
		_ = c.Close()
	}()
	br := bufio.NewReader(c)
	if !t.acceptMux(c, br) {
		t.metrics.rejected.Inc()
		return
	}
	t.serveMux(c, br)
}

// Call implements Transport: one request/response over a multiplexed
// connection to addr, dialed on first contact.
func (t *TCP) Call(ctx context.Context, addr string, msg Message) (Message, error) {
	mc, err := t.getMuxConn(ctx, addr)
	if err != nil {
		return Message{}, err
	}
	return mc.roundTrip(ctx, msg)
}

// getMuxConn returns a live multiplexed connection to addr, round-robining
// across up to connsPerPeer of them and dialing lazily. Dials are
// single-flighted per slot: established conns plus handshakes in flight never
// exceed connsPerPeer, and a caller that finds every slot mid-handshake waits
// on dialCond instead of piling a thundering herd of sockets onto the peer.
func (t *TCP) getMuxConn(ctx context.Context, addr string) (*muxConn, error) {
	t.mu.Lock()
	for {
		if t.closed {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		p := t.muxConns[addr]
		if p == nil {
			p = &muxPeer{}
			t.muxConns[addr] = p
		}
		if len(p.conns)+p.dialing < connsPerPeer {
			p.dialing++
			break
		}
		if len(p.conns) > 0 {
			mc := p.conns[p.next%len(p.conns)]
			p.next++
			t.mu.Unlock()
			t.metrics.connReuse.Inc()
			return mc, nil
		}
		// Every slot is a handshake in flight; wait for one to settle.
		// dialMux bounds each handshake by defaultDialTimeout, so the wait
		// always terminates.
		if err := ctx.Err(); err != nil {
			t.mu.Unlock()
			return nil, err
		}
		t.dialCond.Wait()
	}
	t.mu.Unlock()

	mc, err := t.dialMux(ctx, addr)

	t.mu.Lock()
	p := t.muxConns[addr]
	if p != nil {
		p.dialing--
	}
	if err != nil {
		if p != nil && p.dialing == 0 && len(p.conns) == 0 {
			delete(t.muxConns, addr)
		}
		t.dialCond.Broadcast()
		t.mu.Unlock()
		return nil, err
	}
	if t.closed || p == nil {
		t.dialCond.Broadcast()
		t.mu.Unlock()
		mc.fail(ErrClosed)
		return nil, ErrClosed
	}
	p.conns = append(p.conns, mc)
	t.metrics.dials.Inc()
	t.dialCond.Broadcast()
	t.mu.Unlock()
	return mc, nil
}

// dropMuxConn removes a failed connection from its peer's set. The entry is
// kept while handshakes are in flight so their accounting stays attached.
func (t *TCP) dropMuxConn(addr string, mc *muxConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.muxConns[addr]
	if p == nil {
		return
	}
	for i, c := range p.conns {
		if c == mc {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
	if len(p.conns) == 0 && p.dialing == 0 {
		delete(t.muxConns, addr)
	}
}

// Close implements Transport: it stops accepting, closes all connections,
// stops the idle serve workers and waits for in-flight handlers to finish.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.dialCond.Broadcast() // wake getMuxConn waiters so they observe closed
	peers := t.muxConns
	t.muxConns = make(map[string]*muxPeer)
	for c := range t.conns {
		_ = c.Close()
	}
	close(t.stopWorkers)
	t.mu.Unlock()
	for _, p := range peers {
		for _, mc := range p.conns {
			mc.fail(ErrClosed)
		}
	}
	err := t.listener.Close()
	t.wg.Wait()
	return err
}
