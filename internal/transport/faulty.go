package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjectedFault marks failures manufactured by a Faulty transport: injected
// drops and partitions wrap both this error and ErrUnreachable, so callers can
// distinguish synthetic faults in tests while production retry logic treats
// them exactly like real network failures.
var ErrInjectedFault = errors.New("transport: injected fault")

// Faults describes the failure model a Faulty transport applies to messages
// toward one destination (or to every destination, as the default model).
// The zero value injects nothing.
type Faults struct {
	// Drop is the probability in [0,1] that a call fails. Half of the drops
	// (chosen deterministically from the seed) are request drops — the
	// destination never sees the message — and half are response drops: the
	// destination handler runs, but the caller still gets an error. Response
	// drops are what make retry idempotence matter.
	Drop float64
	// Dup is the probability in [0,1] that the request is delivered twice.
	// The duplicate's response is discarded. Receivers that serve through a
	// Faulty transport deduplicate by Message.Nonce, so duplicates of
	// nonce-carrying requests do not re-run the handler.
	Dup float64
	// DelayMin/DelayMax bound a uniformly drawn artificial latency added to
	// every call. DelayMax == 0 disables delays.
	DelayMin, DelayMax time.Duration
	// Partitioned makes the destination unreachable until healed.
	Partitioned bool
}

// FaultStats counts the faults a Faulty transport has injected.
type FaultStats struct {
	Calls        int64 // calls attempted through the wrapper
	DroppedReq   int64 // requests silently discarded
	DroppedResp  int64 // responses discarded after the handler ran
	Duplicated   int64 // requests delivered twice
	Delayed      int64 // calls that slept an injected delay
	Partitioned  int64 // calls refused by an active partition
	DedupHits    int64 // duplicate deliveries suppressed on the serve side
	HandlerCalls int64 // incoming requests actually handed to the handler
}

// Faulty wraps any Transport (in-memory, TCP) and injects deterministic,
// seeded faults on the send path: drops, delays, duplicates and partitions,
// configurable per destination peer. On the serve path it deduplicates
// requests by Message.Nonce, giving at-most-once handler execution under
// duplication and caller retries.
//
// All fault decisions are drawn from a single seeded PRNG, so two runs with
// the same seed and the same call sequence inject the same schedule.
type Faulty struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	def     Faults
	perPeer map[string]Faults
	stats   FaultStats

	dedup *dedupCache
}

var _ Transport = (*Faulty)(nil)

// NewFaulty wraps inner with the given default fault model. The seed fixes
// the injected schedule; equal seeds (with equal call sequences) produce
// identical drop/delay/duplicate decisions.
func NewFaulty(inner Transport, seed int64, def Faults) *Faulty {
	return &Faulty{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		def:     def,
		perPeer: make(map[string]Faults),
		dedup:   newDedupCache(1024),
	}
}

// SetFaults replaces the default fault model applied to destinations without
// a per-peer override.
func (f *Faulty) SetFaults(def Faults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.def = def
}

// SetPeerFaults installs a fault model for the (self, dst) peer pair,
// overriding the default model for that destination.
func (f *Faulty) SetPeerFaults(dst string, fl Faults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perPeer[dst] = fl
}

// ClearPeerFaults removes a per-peer override.
func (f *Faulty) ClearPeerFaults(dst string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.perPeer, dst)
}

// Partition cuts the link to dst (keeping the rest of its fault model).
func (f *Faulty) Partition(dst string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.perPeer[dst]
	if !ok {
		fl = f.def
	}
	fl.Partitioned = true
	f.perPeer[dst] = fl
}

// Heal restores the link to dst.
func (f *Faulty) Heal(dst string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.perPeer[dst]
	if !ok {
		return
	}
	fl.Partitioned = false
	f.perPeer[dst] = fl
}

// FaultStats returns a snapshot of the injected-fault counters.
func (f *Faulty) FaultStats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Inner returns the wrapped transport.
func (f *Faulty) Inner() Transport { return f.inner }

// Addr implements Transport.
func (f *Faulty) Addr() string { return f.inner.Addr() }

// Close implements Transport.
func (f *Faulty) Close() error { return f.inner.Close() }

// Serve implements Transport: the handler is wrapped with nonce-based
// deduplication so injected duplicates and caller retries execute at most
// once.
func (f *Faulty) Serve(h Handler) {
	f.inner.Serve(func(ctx context.Context, from string, msg Message) (Message, error) {
		if msg.Nonce != "" {
			if resp, ok := f.dedup.get(msg.Nonce); ok {
				f.mu.Lock()
				f.stats.DedupHits++
				f.mu.Unlock()
				return resp, nil
			}
		}
		f.mu.Lock()
		f.stats.HandlerCalls++
		f.mu.Unlock()
		resp, err := h(ctx, from, msg)
		if err == nil && msg.Nonce != "" {
			f.dedup.put(msg.Nonce, resp)
		}
		return resp, err
	})
}

// DedupHandler wraps a handler with nonce-based at-most-once execution: a
// request whose Nonce was already handled replays the cached response
// instead of re-running h. Requests without a nonce pass through. capacity
// bounds the FIFO response cache; values below 1 mean 1024.
func DedupHandler(h Handler, capacity int) Handler {
	if capacity < 1 {
		capacity = 1024
	}
	cache := newDedupCache(capacity)
	return func(ctx context.Context, from string, msg Message) (Message, error) {
		if msg.Nonce == "" {
			return h(ctx, from, msg)
		}
		if resp, ok := cache.get(msg.Nonce); ok {
			return resp, nil
		}
		resp, err := h(ctx, from, msg)
		if err == nil {
			cache.put(msg.Nonce, resp)
		}
		return resp, err
	}
}

// plan is one call's fault schedule, decided up front under the lock so the
// seeded sequence is independent of downstream timing.
type plan struct {
	partitioned bool
	dropReq     bool
	dropResp    bool
	dup         bool
	delay       time.Duration
}

func (f *Faulty) planCall(dst string) plan {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.perPeer[dst]
	if !ok {
		fl = f.def
	}
	f.stats.Calls++
	var p plan
	if fl.Partitioned {
		p.partitioned = true
		f.stats.Partitioned++
		return p
	}
	if fl.Drop > 0 && f.rng.Float64() < fl.Drop {
		if f.rng.Float64() < 0.5 {
			p.dropReq = true
			f.stats.DroppedReq++
		} else {
			p.dropResp = true
			f.stats.DroppedResp++
		}
	}
	if fl.Dup > 0 && f.rng.Float64() < fl.Dup {
		p.dup = true
		f.stats.Duplicated++
	}
	if fl.DelayMax > 0 {
		span := fl.DelayMax - fl.DelayMin
		d := fl.DelayMin
		if span > 0 {
			d += time.Duration(f.rng.Int63n(int64(span)))
		}
		if d > 0 {
			p.delay = d
			f.stats.Delayed++
		}
	}
	return p
}

// Call implements Transport, applying the destination's fault model.
func (f *Faulty) Call(ctx context.Context, addr string, msg Message) (Message, error) {
	p := f.planCall(addr)
	if p.partitioned {
		return Message{}, fmt.Errorf("%w: %w: partition blocks %s", ErrInjectedFault, ErrUnreachable, addr)
	}
	if p.delay > 0 {
		t := time.NewTimer(p.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return Message{}, ctx.Err()
		}
	}
	if p.dropReq {
		return Message{}, fmt.Errorf("%w: %w: request to %s dropped", ErrInjectedFault, ErrUnreachable, addr)
	}
	if p.dup {
		// Deliver the duplicate first and discard its response; the
		// receiver's nonce dedup keeps the handler at-most-once.
		_, _ = f.inner.Call(ctx, addr, msg)
	}
	resp, err := f.inner.Call(ctx, addr, msg)
	if err != nil {
		return Message{}, err
	}
	if p.dropResp {
		return Message{}, fmt.Errorf("%w: %w: response from %s dropped", ErrInjectedFault, ErrUnreachable, addr)
	}
	return resp, nil
}

// dedupCache is a bounded FIFO map from request nonce to cached response.
// The FIFO is a fixed ring: once it is full, each new nonce overwrites the
// oldest, at ring[next].
type dedupCache struct {
	mu    sync.Mutex
	ring  []string
	next  int
	byKey map[string]Message
}

func newDedupCache(capacity int) *dedupCache {
	return &dedupCache{ring: make([]string, 0, capacity), byKey: make(map[string]Message, capacity)}
}

func (c *dedupCache) get(key string) (Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.byKey[key]
	return m, ok
}

func (c *dedupCache) put(key string, m Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		c.byKey[key] = m
		return
	}
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, key)
	} else {
		delete(c.byKey, c.ring[c.next])
		c.ring[c.next] = key
		c.next = (c.next + 1) % len(c.ring)
	}
	c.byKey[key] = m
}
