package netnode_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// joinSpec is one node of a join-order layout.
type joinSpec struct {
	id   uint64
	name string
}

// benchLayout is the benchmark's eight-node cluster (bench/workload.go's
// topology), same identifiers and join order: two nodes in each of west/a,
// west/b, east/a and east/b.
func benchLayout() []joinSpec {
	return []joinSpec{
		{1898122680, "west/a"}, {1424232574, "west/a"},
		{2448338018, "west/b"}, {853820631, "west/b"},
		{2839335395, "east/a"}, {3940604394, "east/a"},
		{347470738, "east/b"}, {3359944329, "east/b"},
	}
}

// smokeLayout is scripts/geometry-smoke.sh's six nodes, two in each of
// three leaf domains, same identifiers and join order: stanford/ee's
// registry key changes owner between its two members' joins.
func smokeLayout() []joinSpec {
	return []joinSpec{
		{1369035984, "mit/csail"}, {385287196, "stanford/cs"}, {1473401147, "stanford/ee"},
		{2910593811, "mit/csail"}, {4000908327, "stanford/ee"}, {2548271526, "stanford/cs"},
	}
}

// hierLayout is hierNames' fifteen nodes under distinct identifiers drawn
// from seed.
func hierLayout(seed int64) []joinSpec {
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	var out []joinSpec
	for _, name := range hierNames() {
		v := uint64(id.DefaultSpace().Random(rng))
		for seen[v] {
			v = uint64(id.DefaultSpace().Random(rng))
		}
		seen[v] = true
		out = append(out, joinSpec{v, name})
	}
	return out
}

var geometries = []string{netnode.GeometryCrescendo, netnode.GeometryKandy, netnode.GeometryCacophony}

// joinCluster creates one node per spec on a fresh bus and joins each
// through the first, in order — and nothing else: no Start, no maintenance
// round beyond the one Join runs on the joiner itself.
func joinCluster(t *testing.T, ctx context.Context, geom string, specs []joinSpec, reg *telemetry.Registry) *cluster {
	t.Helper()
	c := &cluster{bus: transport.NewBus(), rng: rand.New(rand.NewSource(1))}
	for _, s := range specs {
		c.join(t, ctx, geom, s, reg, "")
	}
	return c
}

// join adds one node to the cluster, joining through contact (the first
// node when empty).
func (c *cluster) join(t *testing.T, ctx context.Context, geom string, s joinSpec, reg *telemetry.Registry, contact string) *netnode.Node {
	t.Helper()
	n, err := netnode.New(netnode.Config{
		Name: s.name, ID: s.id, Geometry: geom, Rand: c.rng, Telemetry: reg,
		Transport: c.bus.Endpoint(fmt.Sprintf("node-%d", s.id)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if contact == "" && len(c.nodes) > 0 {
		contact = c.nodes[0].Info().Addr
	}
	if err := n.Join(ctx, contact); err != nil {
		t.Fatalf("join %d (%s): %v", s.id, s.name, err)
	}
	c.nodes = append(c.nodes, n)
	return n
}

// domainAt returns the first level components of a domain name.
func domainAt(name string, level int) string {
	if level == 0 {
		return ""
	}
	return strings.Join(strings.Split(name, "/")[:level], "/")
}

// ring returns the identities of the cluster's nodes in the domain named
// prefix, sorted by identifier, leaving out the addresses in exclude.
func (c *cluster) ring(prefix string, exclude map[string]bool) []netnode.Info {
	var out []netnode.Info
	for _, n := range c.nodes {
		if !exclude[n.Info().Addr] && inPrefix(n.Info().Name, prefix) {
			out = append(out, n.Info())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ringOwner is the oracle owner of key in a sorted ring: the member with
// the greatest identifier at or below key, wrapping to the last.
func ringOwner(ring []netnode.Info, key uint64) netnode.Info {
	owner := ring[len(ring)-1]
	for _, m := range ring {
		if m.ID <= key {
			owner = m
		}
	}
	return owner
}

// matchesOracle checks every node not in gone against the sorted-ring
// oracle of the nodes not in gone, at every level of its chain: its
// successor list is the next r members clockwise (r = SuccessorListLen, or
// the ring's size less one), its predecessor the member before it, and a
// lookup through it of every probe key returns the key's owner in that
// domain. With lingering set, a list may still name a gone node: those
// entries are dropped and the rest must be a prefix of the oracle's list.
func (c *cluster) matchesOracle(t *testing.T, ctx context.Context, gone map[string]bool, lingering bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var keys []uint64
	for _, m := range c.ring("", gone) {
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
			at := sort.Search(len(ring), func(i int) bool { return ring[i].ID >= self.ID })
			var want []uint64
			for k := 1; k < len(ring) && k <= defaultSuccessorListLen; k++ {
				want = append(want, ring[(at+k)%len(ring)].ID)
			}
			got := n.Successors(l)
			if err := succListOK(self, got, defaultSuccessorListLen); err != nil {
				t.Fatalf("level %d (%q): %v", l, prefix, err)
			}
			ids := infoIDs(got)
			if lingering {
				ids = ids[:0]
				for _, s := range got {
					if !gone[s.Addr] {
						ids = append(ids, s.ID)
					}
				}
				want = want[:min(len(ids), len(want))]
			}
			if fmt.Sprint(ids) != fmt.Sprint(want) {
				t.Fatalf("node %d level %d (%q): successors %v, want %v", self.ID, l, prefix, infoIDs(got), want)
			}
			if p, wantP := n.Predecessor(l), ring[(at+len(ring)-1)%len(ring)]; len(ring) > 1 && p.ID != wantP.ID {
				t.Fatalf("node %d level %d (%q): predecessor %d, want %d", self.ID, l, prefix, p.ID, wantP.ID)
			}
			for _, key := range keys {
				got, err := n.Lookup(ctx, key, prefix)
				if err != nil {
					t.Fatalf("node %d: lookup %d in %q: %v", self.ID, key, prefix, err)
				}
				if want := ringOwner(ring, key); got.ID != want.ID {
					t.Fatalf("node %d: key %d in %q resolves to %d, want %d", self.ID, key, prefix, got.ID, want.ID)
				}
			}
		}
	}
}

// TestJoinConvergesWithoutMaintenance is Section 2.3's eager notification
// at every level: right after the last Join, with no maintenance round on
// any node but the joiner's own, every successor list and predecessor
// matches the sorted rings and every lookup at every level resolves to the
// true owner. Two mechanisms make that hold: the AsSuccessor notify is
// passed back along the predecessors whose lists the joiner enters, and a
// node the joiner splices in front of hands it the registry entries whose
// domain keys it takes over (without them the benchmark layout's east/a
// comes up as two one-node rings).
func TestJoinConvergesWithoutMaintenance(t *testing.T) {
	layouts := []struct {
		name  string
		specs []joinSpec
	}{{"bench8", benchLayout()}, {"smoke6", smokeLayout()}, {"hier15", hierLayout(3)}}
	for _, geom := range geometries {
		for _, lay := range layouts {
			t.Run(geom+"/"+lay.name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				c := joinCluster(t, ctx, geom, lay.specs, nil)
				defer c.close(t)
				c.matchesOracle(t, ctx, nil, false)
			})
		}
	}
}

// sentNotifies sums canon_rpc_sent_total{type="notify"} over nodes, each
// of which reports from its own registry.
func sentNotifies(nodes []*netnode.Node) int64 {
	var total int64
	for _, n := range nodes {
		total += n.Stats().Sent["notify"]
	}
	return total
}

// rpcMix sums canon_rpc_sent_total over nodes, split by message type.
func rpcMix(nodes []*netnode.Node) map[string]int64 {
	out := map[string]int64{}
	for _, n := range nodes {
		for typ, v := range n.Stats().Sent {
			out[typ] += v
		}
	}
	return out
}

// TestJoinMessageCost bounds what a join costs and guards the steady state.
// Each joiner sends at most its pinned count: Join's lookups and notifies,
// then one StabilizeOnce (which registers the node) and one FixFingers. The
// rest of the cluster sends only the passed-on notifies, at most
// SuccessorListLen per level: the chain's last hop is the first predecessor
// the joiner no longer fits. With the joiner's own AsSuccessor notify that
// is at most (levels+1)*(SuccessorListLen+1) notify messages per join.
// After convergence, one stabilization round on every node sends exactly
// the RPC mix it sent before joins passed notifies on: the chain adds
// nothing to quiescent maintenance.
func TestJoinMessageCost(t *testing.T) {
	// joinSent ceilings what each benchmark-layout joiner sends during its
	// own Join, in layout order.
	joinSent := map[string][]int64{
		netnode.GeometryCrescendo: {0, 25, 19, 31, 14, 32, 32, 32},
		netnode.GeometryKandy:     {0, 117, 147, 252, 110, 187, 189, 250},
		netnode.GeometryCacophony: {0, 26, 20, 33, 15, 34, 32, 34},
	}
	// quiescent is one StabilizeOnce on each of the eight benchmark-layout
	// nodes after convergence, by message type, as measured before this
	// protocol passed notifies on — except lookups, 17 rather than 32: the
	// node in front of a registry owner answers registerSelf's lookups for
	// it from its successor list instead of forwarding them.
	quiescent := map[string]int64{"lookup": 17, "neighbors": 24, "notify": 24, "ping": 88, "register": 20}
	for _, geom := range geometries {
		t.Run(geom, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			c := &cluster{bus: transport.NewBus(), rng: rand.New(rand.NewSource(1))}
			defer c.close(t)
			for i, s := range benchLayout() {
				before := sentNotifies(c.nodes)
				n := c.join(t, ctx, geom, s, nil, "")
				passedOn := sentNotifies(c.nodes[:len(c.nodes)-1]) - before
				if limit := int64((n.Levels() + 1) * defaultSuccessorListLen); passedOn > limit {
					t.Errorf("join of %d: the cluster passed %d notifies on, more than %d", s.id, passedOn, limit)
				}
				var sent int64
				for _, v := range n.Stats().Sent {
					sent += v
				}
				if sent > joinSent[geom][i] {
					t.Errorf("join of %d: joiner sent %d messages %v, more than %d", s.id, sent, n.Stats().Sent, joinSent[geom][i])
				}
				t.Logf("join of %d: joiner sent %v; the cluster passed %d notifies on", s.id, n.Stats().Sent, passedOn)
			}
			c.settle(t, 2)
			before := rpcMix(c.nodes)
			for _, n := range c.nodes {
				n.StabilizeOnce(ctx)
			}
			got := diffCounts(rpcMix(c.nodes), before)
			want := quiescent
			if geom == netnode.GeometryCacophony {
				want = map[string]int64{"lookahead": 20}
				for typ, v := range quiescent {
					want[typ] = v
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("one quiescent round sent %v, want %v", got, want)
			}
		})
	}
}

func diffCounts(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// round runs one maintenance round on every node the exclude set leaves
// out: StabilizeOnce on each, then FixFingers on each.
func (c *cluster) round(ctx context.Context, exclude map[string]bool) {
	for _, n := range c.nodes {
		if !exclude[n.Info().Addr] {
			n.StabilizeOnce(ctx)
		}
	}
	for _, n := range c.nodes {
		if !exclude[n.Info().Addr] {
			n.FixFingers(ctx)
		}
	}
}

// TestConcurrentJoinsSameGap joins two nodes into the same gap, at every
// level, at once and through different contacts, into a converged cluster.
// Neither join's lookups need see the other joiner, so the passed-on
// notifies may leave a list one joiner short; the rounds that follow
// converge the cluster as before notifies were passed on. Three rounds on
// every node is what that took then (one or two suffice now).
func TestConcurrentJoinsSameGap(t *testing.T) {
	for _, geom := range geometries {
		t.Run(geom, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			c := joinCluster(t, ctx, geom, benchLayout(), nil)
			defer c.close(t)
			c.settle(t, 2)
			// Both land between west/a's 1424232574 and 1898122680.
			specs := []joinSpec{{1600000000, "west/a"}, {1700000000, "west/a"}}
			contacts := []string{c.nodes[0].Info().Addr, c.nodes[5].Info().Addr}
			joiners := make([]*netnode.Node, len(specs))
			errs := make(chan error, len(specs))
			for i, s := range specs {
				n, err := netnode.New(netnode.Config{
					Name: s.name, ID: s.id, Geometry: geom, Rand: rand.New(rand.NewSource(int64(i))),
					Transport: c.bus.Endpoint(fmt.Sprintf("node-%d", s.id)),
				})
				if err != nil {
					t.Fatal(err)
				}
				joiners[i] = n
				go func(contact string) { errs <- n.Join(ctx, contact) }(contacts[i])
			}
			for range specs {
				if err := <-errs; err != nil {
					t.Fatalf("concurrent join: %v", err)
				}
			}
			c.nodes = append(c.nodes, joiners...)
			for r := 0; r < 3; r++ {
				c.round(ctx, nil)
			}
			c.matchesOracle(t, ctx, nil, false)
		})
	}
}

// TestJoinPastClosedPredecessor joins a node whose predecessor's
// predecessor is closed: the passed-on notify to it fails. Join still
// returns, the failure is counted in canon_notify_failures_total, and the
// next round repairs every list around the dead node.
func TestJoinPastClosedPredecessor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := joinCluster(t, ctx, netnode.GeometryCrescendo, benchLayout(), nil)
	defer c.close(t)
	// 1000000000 joins west/b between 853820631 and 1424232574 on the
	// global ring, where east/b's 347470738 precedes 853820631. (No route
	// from the contact to the joiner's place crosses 347470738.)
	var dead, pred *netnode.Node
	for _, n := range c.nodes {
		switch n.Info().ID {
		case 347470738:
			dead = n
		case 853820631:
			pred = n
		}
	}
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	failures := func() int64 {
		return pred.Telemetry().CounterValue("canon_notify_failures_total")
	}
	before := failures()
	c.join(t, ctx, netnode.GeometryCrescendo, joinSpec{1000000000, "west/b"}, nil, "")
	if failures() == before {
		t.Error("the failed pass-on to the closed node was not counted in canon_notify_failures_total")
	}
	gone := map[string]bool{dead.Info().Addr: true}
	c.round(ctx, gone)
	c.matchesOracle(t, ctx, gone, true)
	// Dropping the closed node itself from every list takes the rounds it
	// always has: the round after a neighbor's list lost it.
	c.round(ctx, gone)
	c.round(ctx, gone)
	c.matchesOracle(t, ctx, gone, false)
}

// dropNotifies is a node's transport that, while armed, fails every notify
// the node sends to one address.
type dropNotifies struct {
	transport.Transport
	to    string
	armed atomic.Bool
}

func (d *dropNotifies) Call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	if d.armed.Load() && addr == d.to && msg.Type == "notify" {
		return transport.Message{}, transport.ErrUnreachable
	}
	return d.Transport.Call(ctx, addr, msg)
}

// TestJoinChainStopsWhereListed loses a joiner's notify to its successor,
// so the successor keeps its old predecessor. The passed-on notify then
// runs round the two-node ring the joiner enters — and must stop at the
// first node that already lists the joiner, not circle between the two.
// The next round repairs the predecessor.
func TestJoinChainStopsWhereListed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := joinCluster(t, ctx, netnode.GeometryCrescendo, []joinSpec{{1 << 30, ""}, {3 << 30, ""}}, nil)
	defer c.close(t)
	succ := c.nodes[1].Info()
	tr := &dropNotifies{Transport: c.bus.Endpoint("joiner"), to: succ.Addr}
	tr.armed.Store(true)
	j, err := netnode.New(netnode.Config{ID: 2 << 30, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	c.nodes = append(c.nodes, j)
	// A chain circling between the two nodes would never let the join
	// return: on the bus each pass-on runs inside the handler of the hop
	// before it. The join's own budget, well under the 2 s per-attempt
	// timeout, shows it did not wait out an attempt either.
	jctx, jcancel := context.WithTimeout(ctx, time.Second)
	defer jcancel()
	if err := j.Join(jctx, c.nodes[0].Info().Addr); err != nil {
		t.Fatalf("join: %v", err)
	}
	if jctx.Err() != nil {
		t.Fatal("the join used up its whole budget: the passed-on notify circled the ring")
	}
	if p := c.nodes[1].Predecessor(0); p.ID != 1<<30 {
		t.Fatalf("successor's predecessor %d: the dropped notify reached it", p.ID)
	}
	for _, n := range c.nodes[:2] {
		if got := infoIDs(n.Successors(0)); !slices.Contains(got, j.Info().ID) {
			t.Fatalf("node %d: successors %v lack the joiner", n.Info().ID, got)
		}
	}
	tr.armed.Store(false)
	c.round(ctx, nil)
	c.matchesOracle(t, ctx, nil, false)
}
