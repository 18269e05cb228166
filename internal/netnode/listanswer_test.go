package netnode_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/transport"
)

// A lookup stops one hop early when the node in front of the owner knows
// the owner from its successor list, and answers for it. These tests hold
// the lists that answer exact after a leave, bound the window a crash opens,
// and pin what the early answer saves on the benchmark's layout.

// wrongLookups runs, through every node not in gone, a lookup at every level
// of its chain for each probe key — every node's identifier and the key just
// below it, the gone nodes' included, and sixteen random keys — and returns
// how many answers disagree with the sorted-ring oracle of the nodes not in
// gone, and how many lookups ran.
func (c *cluster) wrongLookups(t *testing.T, ctx context.Context, gone map[string]bool) (wrong, total int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var keys []uint64
	for _, m := range c.ring("", nil) {
		keys = append(keys, m.ID, m.ID-1)
	}
	for i := 0; i < 16; i++ {
		keys = append(keys, uint64(id.DefaultSpace().Random(rng)))
	}
	for _, n := range c.nodes {
		self := n.Info()
		if gone[self.Addr] {
			continue
		}
		for l := 0; l <= n.Levels(); l++ {
			prefix := domainAt(self.Name, l)
			ring := c.ring(prefix, gone)
			for _, key := range keys {
				got, err := n.Lookup(ctx, key, prefix)
				if err != nil {
					t.Fatalf("node %d: lookup %d in %q: %v", self.ID, key, prefix, err)
				}
				total++
				if want := ringOwner(ring, key); got.ID != want.ID {
					wrong++
				}
			}
		}
	}
	return wrong, total
}

// TestLookupAfterLeave is a graceful leave made exact for the lookups that
// read successor lists: right after each node of the benchmark layout leaves
// in turn, with no round run since, no successor list or predecessor at any
// level names the leaver, and every lookup through every other node at every
// level of its chain resolves to the oracle owner. The round before the
// leave lets every node call its list entries, so list answers are live. It
// holds because the leaving notice goes to every level's predecessor and
// first successor, and is passed back along the predecessors whose lists
// named the leaver.
func TestLookupAfterLeave(t *testing.T) {
	for _, geom := range geometries {
		for i := range benchLayout() {
			t.Run(fmt.Sprintf("%s/leaver%d", geom, i), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				c := joinCluster(t, ctx, geom, benchLayout(), nil)
				defer c.close(t)
				c.round(ctx, nil)
				leaver := c.nodes[i]
				if err := leaver.Leave(ctx); err != nil {
					t.Fatal(err)
				}
				gone := map[string]bool{leaver.Info().Addr: true}
				for _, n := range c.nodes {
					for l := 0; l <= n.Levels() && !gone[n.Info().Addr]; l++ {
						got := n.Successors(l)
						if err := succListOK(n.Info(), got, defaultSuccessorListLen); err != nil {
							t.Fatalf("level %d: %v", l, err)
						}
						if slices.ContainsFunc(got, func(s netnode.Info) bool { return gone[s.Addr] }) || gone[n.Predecessor(l).Addr] {
							t.Errorf("node %d level %d still names %d: successors %v, predecessor %d",
								n.Info().ID, l, leaver.Info().ID, infoIDs(got), n.Predecessor(l).ID)
						}
					}
				}
				if wrong, total := c.wrongLookups(t, ctx, gone); wrong != 0 {
					t.Errorf("after %d left: %d of %d lookups disagree with the oracle", leaver.Info().ID, wrong, total)
				}
			})
		}
	}
}

// TestLookupCrashWindow bounds the window a crash opens: a list answer can
// name a crashed owner until the answering node's next call to it fails.
// Stabilization pings every list entry, so after one StabilizeOnce on every
// survivor every lookup is exact again. The wrong answers right after the
// crash are logged, not bounded: that window is the price of answering from
// the list. Nodes run the default retry policy: a call to the crashed node
// stops retrying once the failure detector marks it dead.
func TestLookupCrashWindow(t *testing.T) {
	for _, geom := range geometries {
		for i := range benchLayout() {
			t.Run(fmt.Sprintf("%s/crash%d", geom, i), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				c := &cluster{bus: transport.NewBus(), rng: rand.New(rand.NewSource(1))}
				for _, s := range benchLayout() {
					c.join(t, ctx, geom, s, nil, "")
				}
				defer c.close(t)
				c.round(ctx, nil)
				dead := c.nodes[i]
				if err := dead.Close(); err != nil {
					t.Fatal(err)
				}
				gone := map[string]bool{dead.Info().Addr: true}
				wrong, total := c.wrongLookups(t, ctx, gone)
				t.Logf("right after %d crashed: %d of %d lookups wrong", dead.Info().ID, wrong, total)
				for _, n := range c.nodes {
					if !gone[n.Info().Addr] {
						n.StabilizeOnce(ctx)
					}
				}
				if wrong, total := c.wrongLookups(t, ctx, gone); wrong != 0 {
					t.Errorf("one round after %d crashed: %d of %d lookups disagree with the oracle", dead.Info().ID, wrong, total)
				}
			})
		}
	}
}

// TestLookupForwardCount pins the forwarded lookups per lookup on the
// benchmark's layout, settled by two rounds, under lookup_hier's mix: a
// random entry node and key, the root domain half the time, the entry's
// top-level and leaf domain a quarter each. Every answer is checked against
// the oracle. Forwarding to the owner, the mix cost 4,523 forwards (1.13
// per lookup).
func TestLookupForwardCount(t *testing.T) {
	const lookups = 4000
	const wantForwards = 1918 // 0.48 per lookup
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := joinCluster(t, ctx, netnode.GeometryCrescendo, benchLayout(), nil)
	defer c.close(t)
	c.settle(t, 2)
	received := func() (total int64) {
		for _, n := range c.nodes {
			total += n.Stats().Received["lookup"]
		}
		return total
	}
	rng := rand.New(rand.NewSource(43))
	before := received()
	for i := 0; i < lookups; i++ {
		entry := c.nodes[rng.Intn(len(c.nodes))]
		level := []int{0, 0, 1, 2}[rng.Intn(4)]
		prefix := domainAt(entry.Info().Name, level)
		key := uint64(rng.Uint32())
		got, err := entry.Lookup(ctx, key, prefix)
		if err != nil {
			t.Fatalf("lookup %d in %q: %v", key, prefix, err)
		}
		if want := ringOwner(c.ring(prefix, nil), key); got.ID != want.ID {
			t.Fatalf("lookup %d in %q via %d: owner %d, want %d", key, prefix, entry.Info().ID, got.ID, want.ID)
		}
	}
	forwards := received() - before
	t.Logf("%d forwarded lookups for %d lookups: %.2f per lookup", forwards, lookups, float64(forwards)/lookups)
	if forwards != wantForwards {
		t.Errorf("%d forwarded lookups for %d lookups, want %d", forwards, lookups, wantForwards)
	}
}
