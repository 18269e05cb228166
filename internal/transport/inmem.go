package transport

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Bus is an in-memory network connecting InMem endpoints. An optional
// latency model delays calls, and endpoints can be partitioned to inject
// failures. The zero Bus is not usable; create one with NewBus.
type Bus struct {
	mu        sync.RWMutex
	endpoints map[string]*InMem
	latency   func(from, to string) time.Duration
	down      map[string]bool
}

// NewBus returns an empty in-memory network.
func NewBus() *Bus {
	return &Bus{
		endpoints: make(map[string]*InMem),
		down:      make(map[string]bool),
	}
}

// SetLatency installs a latency model applied to every call; nil disables
// delays.
func (b *Bus) SetLatency(f func(from, to string) time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.latency = f
}

// SetDown marks an endpoint as unreachable (true) or reachable (false)
// without closing it — simulating a crash or partition.
func (b *Bus) SetDown(addr string, down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down[addr] = down
}

// Endpoint creates (or returns) the endpoint with the given address.
func (b *Bus) Endpoint(addr string) *InMem {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ep, ok := b.endpoints[addr]; ok {
		return ep
	}
	ep := &InMem{bus: b, addr: addr}
	b.endpoints[addr] = ep
	return ep
}

func (b *Bus) lookup(addr string) (*InMem, time.Duration, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.down[addr] {
		return nil, 0, fmt.Errorf("%w: %s is down", ErrUnreachable, addr)
	}
	ep, ok := b.endpoints[addr]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	return ep, 0, nil
}

// InMem is an in-memory endpoint on a Bus.
type InMem struct {
	bus  *Bus
	addr string

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

var _ Transport = (*InMem)(nil)

// Addr implements Transport.
func (t *InMem) Addr() string { return t.addr }

// Serve implements Transport.
func (t *InMem) Serve(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Call implements Transport.
func (t *InMem) Call(ctx context.Context, addr string, msg Message) (Message, error) {
	// A call on a finished context fails, as it does over TCP.
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	t.mu.RLock()
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return Message{}, ErrClosed
	}
	t.bus.mu.RLock()
	srcDown := t.bus.down[t.addr]
	latency := t.bus.latency
	t.bus.mu.RUnlock()
	if srcDown {
		return Message{}, fmt.Errorf("%w: local endpoint down", ErrUnreachable)
	}
	dst, _, err := t.bus.lookup(addr)
	if err != nil {
		return Message{}, err
	}
	if latency != nil {
		d := latency(t.addr, addr)
		if d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return Message{}, ctx.Err()
			}
		}
	}
	dst.mu.RLock()
	h := dst.handler
	dstClosed := dst.closed
	dst.mu.RUnlock()
	if dstClosed {
		return Message{}, fmt.Errorf("%w: %s closed", ErrUnreachable, addr)
	}
	if h == nil {
		return Message{}, ErrNoHandler
	}
	// The handler runs under a context of its own, as a TCP serve worker's
	// does: a handler that calls on is bounded per attempt by Node.call, as
	// it is over TCP, not by its caller's deadline.
	resp, err := h(context.Background(), t.addr, msg)
	if err != nil {
		return ErrorMessage(err), nil
	}
	return resp, nil
}

// Close implements Transport.
func (t *InMem) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}
