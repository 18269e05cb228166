package netnode

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

// lockProbeBound is how long a probe waits for one of the calling node's
// mutexes. Each is only ever held for a few map and slice operations, so a
// wait this long means the caller itself holds it across the call.
const lockProbeBound = 2 * time.Second

var errLockHeld = errors.New("lock probe: RPC sent while holding a node mutex")

// lockProbe wraps a node's transport in the bus helpers (replCluster,
// routedCluster). Before each Call it takes and releases each of the calling
// node's mutexes — n.mu, n.replMu, n.health.mu and n.m.mu, every mutex a
// Node owns; when one is busy it has another goroutine take it and waits at
// most lockProbeBound for that. A node that sends an RPC with one of them
// held — at any call depth — fails the test with the stack of the sending
// goroutine, which names the call site. Without the probe that bug is
// silent on the bus, or deadlocks once the handler on the far side calls
// back. No RPC under a node mutex also rules out a lock cycle across nodes.
// The first probe that trips sets tripped, which the probes of one cluster
// share, so every later call fails at once instead of waiting.
type lockProbe struct {
	transport.Transport
	t       testing.TB
	node    *Node // set once New has returned, before any Call
	tripped *atomic.Bool
}

func (p *lockProbe) Call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	if p.tripped.Load() {
		return transport.Message{}, errLockHeld
	}
	n := p.node
	for _, l := range []struct {
		name string
		mu   *sync.Mutex
	}{{"n.mu", &n.mu}, {"n.replMu", &n.replMu}, {"n.health.mu", &n.health.mu}, {"n.m.mu", &n.m.mu}} {
		if lockFree(l.mu) {
			continue
		}
		if !p.tripped.Swap(true) {
			p.t.Errorf("%s sent %q to %s while holding its %s:\n%s", n.self.Addr, msg.Type, addr, l.name, debug.Stack())
		}
		return transport.Message{}, errLockHeld
	}
	return p.Transport.Call(ctx, addr, msg)
}

// lockFree reports whether mu can be taken within lockProbeBound, taking
// and releasing it: at once when nobody holds it (the common case), else
// from another goroutine, since the caller may be the holder.
func lockFree(mu *sync.Mutex) bool {
	if mu.TryLock() {
		mu.Unlock()
		return true
	}
	free := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock()
		close(free)
	}()
	timer := time.NewTimer(lockProbeBound)
	defer timer.Stop()
	select {
	case <-free:
		return true
	case <-timer.C:
		return false
	}
}

// newProbedNode builds a node on a lockProbe over tr.
func newProbedNode(t testing.TB, tripped *atomic.Bool, tr transport.Transport, cfg Config) (*Node, error) {
	probe := &lockProbe{Transport: tr, t: t, tripped: tripped}
	cfg.Transport = probe
	n, err := New(cfg)
	probe.node = n
	return n, err
}

// TestNoRPCUnderNodeLock drives every kind of RPC a node sends — joins with
// their chained notifies and registry handoffs, stabilization, finger and
// lookahead refreshes, routed puts and gets from a node and a client, a
// graceful leave and a failure under every geometry, then replica pushes
// and anti-entropy at ReplicationFactor 2 — through the lock probe. Moving
// handleNotify's pass-on inside applyNotify's n.mu section fails it at the
// first join; holding n.replMu across replicateOnce's pushes fails it at
// the first round after a put.
func TestNoRPCUnderNodeLock(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 3)
		ctx := context.Background()
		for i, n := range c.nodes {
			key := uint64(i+1) * 0x0f0f0f0f0f0f
			if err := n.Put(ctx, key, []byte("v"), "", ""); err != nil {
				t.Fatalf("put: %v", err)
			}
			if _, err := c.client.Get(ctx, c.nodes[(i+1)%len(c.nodes)].self.Addr, key); err != nil {
				t.Fatalf("client get: %v", err)
			}
		}
		if err := c.nodes[1].Leave(ctx); err != nil {
			t.Fatalf("leave: %v", err)
		}
		c.nodes[2].Close()
		for _, n := range c.nodes[3:] {
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
		}
	})
	t.Run("replication", func(t *testing.T) {
		c := newReplCluster(t, 4, 2)
		c.putOwned(t, 1, 4)
		c.round()
		for _, n := range c.nodes {
			n.AntiEntropyOnce(context.Background())
		}
	})
}
