package netnode

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// The routed key-value suite: every test runs on the in-memory bus behind
// transport.Faulty, drives maintenance rounds by hand and counts messages
// from the nodes' own canon_rpc_*_total series — no sleeps, no wall clock —
// once per routing geometry.

func forEachGeometry(t *testing.T, run func(t *testing.T, geometry string)) {
	for _, g := range snapshotGeometries {
		t.Run(g, func(t *testing.T) { run(t, g) })
	}
}

// routedHierNames is the 15-node, three-leaf hierarchy of the public suite.
func routedHierNames() []string {
	var names []string
	for _, leaf := range []string{"stanford/cs", "stanford/ee", "mit/csail"} {
		for i := 0; i < 5; i++ {
			names = append(names, leaf)
		}
	}
	return names
}

// unevenNames is a hierarchy whose leaves sit at different depths: nodes
// living directly in the root and in "a" share routes with nodes three
// levels down.
func unevenNames() []string {
	return []string{
		"", "a", "a", "a/b", "a/b", "a/b/c", "a/b/c", "a/b/c",
		"a/x", "a/x", "d", "d", "d/e", "d/e/f",
	}
}

// failingStore is a Mem store whose writes fail once fail is set — the
// latched write error of a Disk store, without the disk. It also counts the
// writes it applied since its last successful Sync: the ones a crash would
// lose.
type failingStore struct {
	canonstore.Store
	fail     atomic.Bool
	unsynced atomic.Int64
}

var errStoreFailed = errors.New("injected store failure")

func (s *failingStore) Put(e canonstore.Entry) (bool, error) {
	if s.fail.Load() {
		return false, errStoreFailed
	}
	applied, err := s.Store.Put(e)
	if applied && err == nil {
		s.unsynced.Add(1)
	}
	return applied, err
}

func (s *failingStore) Sync() error {
	if s.fail.Load() {
		return errStoreFailed
	}
	if err := s.Store.Sync(); err != nil {
		return err
	}
	s.unsynced.Store(0)
	return nil
}

// routedCluster is a settled hierarchical cluster. Every node sends through
// a lockProbe over a transport.Faulty (no faults installed) and never
// retries, so a dead peer costs one failed call and no backoff; the client
// has a Faulty of its own, whose call count is the number of client RPCs.
type routedCluster struct {
	tripped   atomic.Bool // shared by the nodes' lock probes
	bus       *transport.Bus
	nodes     []*Node
	faulty    []*transport.Faulty
	stores    []*failingStore
	client    *Client
	clientNet *transport.Faulty
}

func newRoutedCluster(t *testing.T, geometry string, names []string, seed int64) *routedCluster {
	t.Helper()
	c := &routedCluster{bus: transport.NewBus()}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	for i, name := range names {
		f := transport.NewFaulty(c.bus.Endpoint(fmt.Sprintf("routed-%d", i)), seed+int64(i), transport.Faults{})
		st := &failingStore{Store: canonstore.NewMem()}
		n, err := newProbedNode(t, &c.tripped, f, Config{
			Name: name, RandomID: true, Rand: rng, Geometry: geometry,
			Store: st, Retry: RetryPolicy{MaxAttempts: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		contact := ""
		if i > 0 {
			contact = c.nodes[0].self.Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatalf("join node %d (%q): %v", i, name, err)
		}
		c.nodes = append(c.nodes, n)
		c.faulty = append(c.faulty, f)
		c.stores = append(c.stores, st)
	}
	for r := 0; r < 12; r++ {
		for _, n := range c.nodes {
			n.StabilizeOnce(ctx)
		}
		for _, n := range c.nodes {
			n.FixFingers(ctx)
		}
	}
	c.clientNet = transport.NewFaulty(c.bus.Endpoint("routed-client"), seed-1, transport.Faults{})
	c.client = NewClient(c.clientNet)
	return c
}

// received sums the requests of one type the cluster's nodes served.
func (c *routedCluster) received(msgType string) int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.m.receivedFixed[msgType].Value()
	}
	return total
}

// sent sums the requests of one type the cluster's nodes sent.
func (c *routedCluster) sent(msgType string) int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.m.sentFixed[msgType].Value()
	}
	return total
}

// in returns the indexes of the nodes inside the named domain.
func (c *routedCluster) in(prefix string) []int {
	var out []int
	for i, n := range c.nodes {
		if inDomain(n.self.Name, prefix) {
			out = append(out, i)
		}
	}
	return out
}

// ownerIn is the test's own ownership oracle: the key's closest clockwise
// predecessor among the members of a domain, from the identifiers alone.
func (c *routedCluster) ownerIn(prefix string, key uint64) int {
	members := c.in(prefix)
	sort.Slice(members, func(a, b int) bool { return c.nodes[members[a]].self.ID < c.nodes[members[b]].self.ID })
	owner := members[len(members)-1]
	for _, m := range members {
		if c.nodes[m].self.ID <= key {
			owner = m
		}
	}
	return owner
}

func (c *routedCluster) holders(key uint64) []int {
	var out []int
	for i, n := range c.nodes {
		if len(n.store.Get(key, nil)) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// seededKeys draws n distinct keys.
func seededKeys(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	space := id.DefaultSpace()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(space.Random(rng))
	}
	return keys
}

// walkHops is what a walk to the owner of key in the domain prefix costs
// from entry — the hops a get or a put takes: a traced lookup's hops, plus
// the one it saves when the node in front of the owner answers for it from
// its successor list (the terminal span is then not the owner's).
func walkHops(tb testing.TB, entry *Node, key uint64, prefix string) int {
	tb.Helper()
	owner, tr, err := entry.TracedLookup(context.Background(), key, prefix)
	if err != nil {
		tb.Fatal(err)
	}
	hops := tr.Hops()
	if tr.Spans[len(tr.Spans)-1].Addr != owner.Addr {
		hops++
	}
	return hops
}

// probeHops is what the retired client-side probe paid in lookup hops to
// reach the level that answered: one walk per level of the entry node's
// chain, from its leaf domain out to answered (-1: every level).
func probeHops(t *testing.T, entry *Node, key uint64, answered int) int {
	t.Helper()
	total := 0
	for l := entry.levels; l >= 0 && l >= answered; l-- {
		total += walkHops(t, entry, key, prefixAt(entry.self.Name, l))
	}
	return total
}

// (a) Message count. One client RPC per operation; the cluster serves
// exactly hops+1 get (resp. put) messages for it and nothing else; a put's
// record takes the lookup's route to the owner (walkHops); a get never takes
// more hops than the per-level probe paid in walks, and on Crescendo a get
// that has to go all the way to the global owner takes exactly the hops of
// one global walk — the bottom-up route is the global route (Section 3.2
// convergence).
func TestRoutedMessageCount(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 41)
		ctx := context.Background()
		classes := []struct{ storage, access string }{
			{"", ""}, {"stanford", "stanford"}, {"mit/csail", "mit/csail"},
			{"stanford/cs", "stanford"}, {"mit/csail", ""},
		}
		for i, key := range seededKeys(42, 40) {
			class := classes[i%len(classes)]
			members := c.in(class.storage)
			entry := c.nodes[members[i%len(members)]]

			calls, puts, others := c.clientNet.FaultStats().Calls, c.received(msgPut), c.sent(msgLookup)+c.sent(msgStoreV2)
			route, err := c.client.PutRoute(ctx, entry.self.Addr, key, []byte(fmt.Sprintf("v-%d", key)), class.storage, class.access)
			if err != nil {
				t.Fatalf("put %d %v via %q: %v", key, class, entry.self.Name, err)
			}
			if got := c.clientNet.FaultStats().Calls - calls; got != 1 {
				t.Fatalf("put %d: %d client RPCs, want 1", key, got)
			}
			if got := c.received(msgPut) - puts; got != int64(route.Hops)+1 {
				t.Fatalf("put %d %v: cluster served %d put messages, reply says hops=%d", key, class, got, route.Hops)
			}
			if got := c.sent(msgLookup) + c.sent(msgStoreV2) - others; got != 0 {
				t.Fatalf("put %d: %d lookup/store2 messages beside the routed put", key, got)
			}
			valueHops := walkHops(t, entry, key, class.storage)
			if class.access == class.storage && route.Hops != valueHops {
				t.Errorf("put %d %v via %q: %d hops, the walk to the owner takes %d", key, class, entry.self.Name, route.Hops, valueHops)
			}
			if class.access != class.storage {
				ptrHops := walkHops(t, entry, key, class.access)
				if route.Hops != valueHops+ptrHops {
					t.Errorf("put %d %v: %d hops, value and pointer lookups take %d+%d", key, class, route.Hops, valueHops, ptrHops)
				}
			}

			for _, r := range c.in(class.access) {
				reader := c.nodes[r]
				calls, gets, others := c.clientNet.FaultStats().Calls, c.received(msgGet), c.sent(msgLookup)+c.sent(msgPing)
				_, route, err := c.client.GetRoute(ctx, reader.self.Addr, key)
				if err != nil {
					t.Fatalf("get %d %v via %q: %v", key, class, reader.self.Name, err)
				}
				if got := c.clientNet.FaultStats().Calls - calls; got != 1 {
					t.Fatalf("get %d: %d client RPCs, want 1", key, got)
				}
				if got := c.received(msgGet) - gets; got != int64(route.Hops)+1 {
					t.Fatalf("get %d via %q: cluster served %d get messages, reply says hops=%d", key, reader.self.Name, got, route.Hops)
				}
				if got := c.sent(msgLookup) + c.sent(msgPing) - others; got != 0 {
					t.Fatalf("get %d: %d lookup/ping messages beside the routed get", key, got)
				}
				if probe := probeHops(t, reader, key, route.Level); route.Hops > probe {
					t.Errorf("get %d via %q answered at level %d: %d hops, the per-level probe paid %d",
						key, reader.self.Name, route.Level, route.Hops, probe)
				}
				if geometry == GeometryCrescendo && route.Level == 0 {
					if global := walkHops(t, reader, key, ""); route.Hops != global {
						t.Errorf("get %d via %q: %d hops bottom-up, one global walk takes %d",
							key, reader.self.Name, route.Hops, global)
					}
				}
			}
		}
	})
}

// kvRecord is one write of the equivalence oracle.
type kvRecord struct {
	storage, access string
	value           string
}

// checkVisibility is the equivalence oracle (b): the answer every node must
// get for key, derived from the identifiers and the Section 4.1 rules alone.
// The get visits the key's owner in each of the reader's domains, most local
// first; a record sits at the owner of its home domain (the storage domain
// for the value, the access domain for its pointer — none when that is the
// same node); the first owner holding a record whose access domain contains
// the reader answers, with that record's value, at that level; a reader no
// access domain contains gets ErrNotFound.
func (c *routedCluster) checkVisibility(t *testing.T, key uint64, recs []kvRecord) {
	t.Helper()
	type placed struct {
		holder int
		rec    kvRecord
	}
	var held []placed
	for _, r := range recs {
		owner := c.ownerIn(r.storage, key)
		held = append(held, placed{owner, r})
		if r.access != r.storage {
			if ptrOwner := c.ownerIn(r.access, key); ptrOwner != owner {
				held = append(held, placed{ptrOwner, r})
			}
		}
	}
	for _, reader := range c.nodes {
		wantLevel := -1
		want := map[string]bool{}
		for l := reader.levels; l >= 0 && wantLevel < 0; l-- {
			owner := c.ownerIn(prefixAt(reader.self.Name, l), key)
			for _, p := range held {
				if p.holder == owner && inDomain(reader.self.Name, p.rec.access) {
					want[p.rec.value] = true
					wantLevel = l
				}
			}
		}
		got, route, err := c.client.GetRoute(context.Background(), reader.self.Addr, key)
		if wantLevel < 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("key %d read from %q: %q, %v; want ErrNotFound", key, reader.self.Name, got, err)
			}
			continue
		}
		if err != nil || !want[string(got)] || route.Level != wantLevel {
			t.Errorf("key %d read from %q: %q at level %d, %v; want one of %v at level %d",
				key, reader.self.Name, got, route.Level, err, want, wantLevel)
		}
		// Node.Get is the same routed get entered locally.
		if direct, derr := reader.Get(context.Background(), key); derr != nil || string(direct) != string(got) {
			t.Errorf("key %d: Node.Get at %q = %q, %v; the client got %q", key, reader.self.Name, direct, derr, got)
		}
	}
}

// runOracle writes seeded keys in the given storage/access classes — one
// class per key, then keys written under two classes at once so that a more
// local copy has to win — and checks every key from every node.
func runOracle(t *testing.T, c *routedCluster, classes [][2]string, seed int64) {
	t.Helper()
	ctx := context.Background()
	put := func(key uint64, class [2]string, n int) kvRecord {
		members := c.in(class[0])
		entry := c.nodes[members[n%len(members)]]
		rec := kvRecord{class[0], class[1], fmt.Sprintf("%d@%s|%s", key, class[0], class[1])}
		if err := entry.Put(ctx, key, []byte(rec.value), rec.storage, rec.access); err != nil {
			t.Fatalf("put %d %v via %q: %v", key, class, entry.self.Name, err)
		}
		return rec
	}
	keys := seededKeys(seed, 3*len(classes))
	for i, key := range keys {
		recs := []kvRecord{put(key, classes[i%len(classes)], i)}
		if i >= len(classes) {
			if other := classes[(i+1+i/len(classes))%len(classes)]; other != classes[i%len(classes)] {
				recs = append(recs, put(key, other, i+1))
			}
		}
		c.checkVisibility(t, key, recs)
	}
}

// (b) Equivalence oracle on the three-leaf hierarchy: every storage/access
// class, pointers (access ⊋ storage) included.
func TestRoutedGetVisibility(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 51)
		runOracle(t, c, [][2]string{
			{"", ""}, {"stanford", "stanford"}, {"mit", "mit"},
			{"stanford/cs", "stanford/cs"}, {"stanford/ee", "stanford/ee"},
			{"stanford/cs", "stanford"}, {"stanford/ee", ""}, {"mit/csail", "mit"}, {"mit", ""},
		}, 52)
	})
}

// (f) The same oracle where leaves sit at unequal depths: the origin of a
// get is deeper than nodes on its route, and shallower than holders.
func TestRoutedUnequalDepth(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, unevenNames(), 61)
		runOracle(t, c, [][2]string{
			{"", ""}, {"a", "a"}, {"a/b", "a/b"}, {"a/b/c", "a/b/c"}, {"d/e/f", "d/e/f"},
			{"a/b/c", "a"}, {"a/b", ""}, {"d/e/f", "d"}, {"a/x", "a"}, {"d", ""},
		}, 62)
	})
}

// (c) Section 3.2 path locality as a retrieval property: with every node
// outside stanford cut off, a stanford-scoped put and get through
// stanford/cs still succeed, and not one RPC is even attempted out of the
// domain.
func TestRoutedOpsStayInDomain(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 71)
		ctx := context.Background()
		inside, outside := c.in("stanford"), c.in("mit")
		for _, i := range inside {
			for _, o := range outside {
				c.faulty[i].Partition(c.nodes[o].self.Addr)
				c.faulty[o].Partition(c.nodes[i].self.Addr)
			}
		}
		cs := c.in("stanford/cs")
		for i, key := range seededKeys(72, 30) {
			writer, reader := c.nodes[cs[i%len(cs)]], c.nodes[cs[(i+1)%len(cs)]]
			value := fmt.Sprintf("local-%d", key)
			if err := c.client.Put(ctx, writer.self.Addr, key, []byte(value), "stanford", "stanford"); err != nil {
				t.Fatalf("put %d behind the partition: %v", key, err)
			}
			got, route, err := c.client.GetRoute(ctx, reader.self.Addr, key)
			if err != nil || string(got) != value {
				t.Fatalf("get %d behind the partition: %q, %v", key, got, err)
			}
			if route.Level < 1 {
				t.Errorf("get %d answered at level %d: a stanford-scoped key is answered inside stanford", key, route.Level)
			}
		}
		for _, i := range inside {
			if refused := c.faulty[i].FaultStats().Partitioned; refused != 0 {
				t.Errorf("node %d (%q) attempted %d RPCs out of the domain", i, c.nodes[i].self.Name, refused)
			}
		}
		for _, o := range outside {
			n := c.nodes[o]
			if got := n.m.receivedFixed[msgGet].Value() + n.m.receivedFixed[msgPut].Value() + n.m.receivedFixed[msgFetch].Value(); got != 0 {
				t.Errorf("node %d (%q) outside the domain served %d key-value messages", o, n.self.Name, got)
			}
		}
	})
}

// (d) A store failure at the owner is an answer: the owner replies status
// not-durable, so the put fails — it is not routed around to a node that
// would happily ack — and no node ends up holding the key.
func TestRoutedPutOwnerStoreFailure(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 81)
		ctx := context.Background()
		for _, key := range seededKeys(82, 20) {
			owner := c.ownerIn("", key)
			c.stores[owner].fail.Store(true)
			for i, entry := range c.nodes {
				err := c.client.Put(ctx, entry.self.Addr, key, []byte("lost"), "", "")
				if err == nil {
					t.Fatalf("put %d via node %d acked although owner %d cannot store", key, i, owner)
				}
				if errors.Is(err, ErrNotFound) || errors.Is(err, ErrBadDomain) {
					t.Fatalf("put %d via node %d: %v; a store failure is neither", key, i, err)
				}
			}
			if h := c.holders(key); len(h) != 0 {
				t.Fatalf("key %d: nodes %v hold a write that was never acked", key, h)
			}
			c.stores[owner].fail.Store(false)
			if err := c.client.Put(ctx, c.nodes[0].self.Addr, key, []byte("kept"), "", ""); err != nil {
				t.Fatalf("put %d after the store recovered: %v", key, err)
			}
			if h := c.holders(key); len(h) != 1 || h[0] != owner {
				t.Fatalf("key %d held by %v, want only owner %d", key, h, owner)
			}
		}
	})
}

// (g) The best candidate is dead: the get routes around it and the answer
// does not change. The cluster is one twelve-node leaf domain two levels
// down, so every get is answered on the leaf ring — where successor lists
// are admissible whole and a single dead node can always be bypassed; on the
// outer rings of a hierarchy the Canon link bound can leave a dead node the
// only gateway until stabilization prunes it, and the get then answers
// best-effort exactly as a lookup does.
func TestRoutedGetRoutesAroundDeadCandidate(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		names := make([]string, 12)
		for i := range names {
			names[i] = "org/dept"
		}
		c := newRoutedCluster(t, geometry, names, 91)
		ctx := context.Background()
		tried := 0
		for _, key := range seededKeys(92, 30) {
			value := fmt.Sprintf("v-%d", key)
			if err := c.nodes[0].Put(ctx, key, []byte(value), "org", "org"); err != nil {
				t.Fatal(err)
			}
			holder := c.nodes[c.ownerIn("", key)].self.Addr
			for _, entry := range c.nodes {
				v := entry.routing.Load()
				plan, err := entry.planHop(v, key, v.levels, 0)
				if err != nil {
					t.Fatal(err)
				}
				if plan.cnt < 2 || plan.best == holder {
					continue
				}
				tried++
				failed, around := entry.m.failedCalls.Value(), c.sent(msgGet)
				c.bus.SetDown(plan.best, true)
				got, route, err := c.client.GetRoute(ctx, entry.self.Addr, key)
				c.bus.SetDown(plan.best, false)
				if err != nil || string(got) != value || route.Level != 2 {
					t.Fatalf("get %d at node %s with best candidate %s dead: %q at level %d, %v",
						key, entry.self.Addr, plan.best, got, route.Level, err)
				}
				if entry.m.failedCalls.Value() == failed {
					t.Fatalf("get %d at node %s never tried the dead best candidate %s", key, entry.self.Addr, plan.best)
				}
				// Every attempt, the failed ones included, is a sent get; the
				// reply's hops count only the route that answered.
				if sent := c.sent(msgGet) - around; sent <= int64(route.Hops) {
					t.Fatalf("get %d: %d gets sent for a %d-hop route around a dead node", key, sent, route.Hops)
				}
				// The peer is back: clear the failure detectors it tripped, so
				// the next trial starts from a cluster that trusts everyone.
				for _, n := range c.nodes {
					n.health.recordSuccess(plan.best)
				}
			}
		}
		t.Logf("%d trials", tried)
		if tried == 0 {
			t.Fatal("no get had a first hop with an alternative: the test exercised nothing")
		}
	})
}

// (h) Concurrent puts and gets on one key, from every node at once: every
// get returns a value some put wrote, and once the writers are done every
// node reads the one value the owner kept — the highest version. Run under
// -race.
func TestRoutedConcurrentGetPut(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 101)
		ctx := context.Background()
		const key, rounds = uint64(0x5eed5eed), 20
		written := func(v []byte) bool {
			var n, r int
			_, err := fmt.Sscanf(string(v), "w%d-%d", &n, &r)
			return err == nil && n < len(c.nodes) && r < rounds
		}
		if err := c.nodes[0].Put(ctx, key, []byte("w0-0"), "", ""); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i, n := range c.nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := n.Put(ctx, key, []byte(fmt.Sprintf("w%d-%d", i, r)), "", ""); err != nil {
						t.Errorf("put from node %d: %v", i, err)
						return
					}
					got, err := c.nodes[(i+r)%len(c.nodes)].Get(ctx, key)
					if err != nil || !written(got) {
						t.Errorf("get beside the writers: %q, %v", got, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		owner := c.nodes[c.ownerIn("", key)]
		entries := owner.store.Get(key, nil)
		if len(entries) != 1 {
			t.Fatalf("owner holds %d records for the key, want 1", len(entries))
		}
		// Every put was stamped by the owner's clock, one stamp per put.
		if want := uint64(len(c.nodes)*rounds + 1); entries[0].Version != want {
			t.Errorf("kept version %d, want the highest stamp %d", entries[0].Version, want)
		}
		for i, n := range c.nodes {
			got, err := n.Get(ctx, key)
			if err != nil || string(got) != string(entries[0].Value) {
				t.Errorf("node %d reads %q, %v; the owner kept %q (version %d)", i, got, err, entries[0].Value, entries[0].Version)
			}
		}
	})
}

// (i) An error reply is routed around, by every op alike: with one node of a
// settled cluster refusing every request, as a node does while it shuts
// down, lookups, gets and puts sent from each other node all succeed, and a
// get from the entry node reads back each acked put. A get may miss a record
// only where the entry's lookup cannot reach a holder either — the record's
// one holder is the refusing node, or the refusing node is the domain's only
// gateway toward it (the Canon link bound) — so it answers as best effort
// exactly as the lookup does. A lookup may name the refusing node as the
// owner without visiting it (the node in front of it answers from its
// successor list), so a holder that refuses is never reachable.
func TestRoutedRefusingNodeRoutedAround(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 7)
		ctx := context.Background()
		keys := seededKeys(7, 200)
		for i, key := range keys {
			if err := c.nodes[i%len(c.nodes)].Put(ctx, key, []byte("before"), "", ""); err != nil {
				t.Fatal(err)
			}
		}
		const refusing = 3
		c.nodes[refusing].mu.Lock()
		c.nodes[refusing].closed = true
		c.nodes[refusing].mu.Unlock()

		failed := map[string]int{}
		for _, key := range keys {
			for i, entry := range c.nodes {
				if i == refusing {
					continue
				}
				owner, err := entry.Lookup(ctx, key, "")
				if err != nil {
					failed["lookup"]++
				}
				reachable := false
				for _, h := range c.holders(key) {
					reachable = reachable || h != refusing && c.nodes[h].self.Addr == owner.Addr
				}
				if _, err := entry.Get(ctx, key); err != nil && (reachable || !errors.Is(err, ErrNotFound)) {
					failed["get"]++
				}
				value := fmt.Sprintf("%d-from-%d", key, i)
				if err := entry.Put(ctx, key, []byte(value), "", ""); err != nil {
					failed["put"]++
					continue
				}
				if got, err := entry.Get(ctx, key); err != nil || string(got) != value {
					failed["read back"]++
				}
			}
		}
		ops := len(keys) * (len(c.nodes) - 1)
		for _, op := range []string{"lookup", "get", "put", "read back"} {
			if failed[op] != 0 {
				t.Errorf("%s failed %d of %d times with node %d refusing", op, failed[op], ops, refusing)
			}
		}
	})
}

// (j) Traced gets and puts carry spans exactly as traced lookups do. With
// TraceSampleRate 1, every Node.Put and Node.Get archives a trace at its
// entry node with one span per node the message visited — hops+1, since the
// cluster serves one message per hop — ending in its one Owner span; a get
// answered in the entry's leaf domain has every span inside that leaf
// (Section 3.2 locality).
func TestRoutedTracedGetPut(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 121)
		ctx := context.Background()
		for _, n := range c.nodes {
			n.cfg.TraceSampleRate = 1
		}
		// archived returns the trace the entry archived for the op just run,
		// which the cluster served with the given number of messages.
		archived := func(entry *Node, op string, served, doneBefore int64) telemetry.Trace {
			t.Helper()
			if done := entry.m.traceDone.Value() - doneBefore; done != 1 {
				t.Fatalf("%s at %s archived %d traces, want 1", op, entry.self.Addr, done)
			}
			tr, ok := entry.TraceStore().Get(entry.TraceStore().Recent(1)[0])
			if !ok || int64(len(tr.Spans)) != served+1 || tr.Spans[0].Addr != entry.self.Addr {
				t.Fatalf("%s at %s: %d messages served, archived %+v", op, entry.self.Addr, served, tr)
			}
			for i, s := range tr.Spans {
				if s.Hop != i || s.Owner != (i == len(tr.Spans)-1) {
					t.Fatalf("%s trace %s: span %d is %+v; want hop %d, the last span the one owner", op, tr.ID, i, s, i)
				}
			}
			return tr
		}
		cs := c.in("stanford/cs")
		for i, key := range seededKeys(122, 30) {
			storage := []string{"stanford/cs", "stanford", ""}[i%3]
			writer, reader := c.nodes[cs[i%len(cs)]], c.nodes[cs[(i+1)%len(cs)]]

			served, done := c.received(msgPut), writer.m.traceDone.Value()
			if err := writer.Put(ctx, key, []byte("v"), storage, storage); err != nil {
				t.Fatalf("put %d in %q: %v", key, storage, err)
			}
			archived(writer, "put", c.received(msgPut)-served, done)

			served, done = c.received(msgGet), reader.m.traceDone.Value()
			if got, err := reader.Get(ctx, key); err != nil || string(got) != "v" {
				t.Fatalf("get %d: %q, %v", key, got, err)
			}
			tr := archived(reader, "get", c.received(msgGet)-served, done)
			if storage == "stanford/cs" && tr.OutOfDomainHops(storage) != 0 {
				t.Errorf("get %d answered in the leaf left it: %+v", key, tr.Spans)
			}
		}
	})
}

// TestRoutedEntryHopRule pins what only the entry node may decide: a get
// entering with a forged origin is answered for the entry node's own name,
// a forged level cannot index outside the chain, and a put entering with a
// pointer stores a value, not a pointer.
func TestRoutedEntryHopRule(t *testing.T) {
	c := newRoutedCluster(t, GeometryCrescendo, routedHierNames(), 111)
	ctx := context.Background()
	const key = uint64(0xabcdef)
	cs, mit := c.nodes[c.in("stanford/cs")[0]], c.nodes[c.in("mit")[0]]
	if err := cs.Put(ctx, key, []byte("scoped"), "stanford", "stanford"); err != nil {
		t.Fatal(err)
	}
	resp, err := mit.handleGet(ctx, &getReq{Key: key, Origin: "stanford/cs", Level: 2})
	if err != nil || resp.Status != statusNotFound {
		t.Errorf("get entering at mit with a forged stanford origin: %+v, %v; want not found", resp, err)
	}
	for _, level := range []int{99, -99} {
		resp, err := mit.handleGet(ctx, &getReq{Key: key, Origin: "stanford/cs", Level: level, routeHeader: routeHeader{Hops: 1}})
		if err != nil || resp.Status != statusNotFound {
			t.Errorf("forwarded get with level %d at a node sharing no level with the origin: %+v, %v", level, resp, err)
		}
	}
	forged := Info{ID: 1, Name: "mit/csail", Addr: "nowhere"}
	put, err := cs.handlePut(ctx, &putReq{Key: key + 1, Value: []byte("v"), Pointer: forged})
	if err != nil || put.Status != statusOK {
		t.Fatalf("put entering with a pointer: %+v, %v", put, err)
	}
	for _, e := range c.nodes[c.ownerIn("", key+1)].store.Get(key+1, nil) {
		if e.IsPointer() {
			t.Errorf("the entry node stored the client's forged pointer: %+v", e)
		}
	}
	if got, err := mit.Get(ctx, key+1); err != nil || string(got) != "v" {
		t.Errorf("get of the value put beside a forged pointer: %q, %v", got, err)
	}
}

// TestAckedWritesAreSynced holds the store-ack contract of docs/STORAGE.md:
// a node acknowledges a write only after its store's Sync, so no store is
// left holding a write a crash could lose once the operation that wrote it
// has returned. Checked after routed puts from every entry node, through
// the client and through Node.Put, scoped and pointer records included;
// after a replication round's chain pushes and after a round of handoffs,
// whose store2 batches each receiver syncs once before it acks; and after
// an anti-entropy sweep, which pushes the records a partner lost in one
// batch and syncs the ones it pulls back. Every phase sends batches of
// more than one record, so one barrier must cover a whole batch.
func TestAckedWritesAreSynced(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newRoutedCluster(t, geometry, routedHierNames(), 131)
		ctx := context.Background()
		for _, n := range c.nodes {
			n.cfg.ReplicationFactor = 2
		}
		requireSynced := func(when string) {
			t.Helper()
			for i, st := range c.stores {
				if u := st.unsynced.Load(); u != 0 {
					t.Fatalf("after %s: node %d (%q) holds %d writes it never synced", when, i, c.nodes[i].self.Name, u)
				}
			}
		}

		keys := seededKeys(132, 4*len(c.nodes))
		for i, entry := range c.nodes {
			storage := prefixAt(entry.self.Name, i%3)
			access := []string{storage, ""}[i%2]
			k := keys[4*i:]
			if err := c.client.Put(ctx, entry.self.Addr, k[0], []byte("client"), storage, access); err != nil {
				t.Fatalf("client put via node %d: %v", i, err)
			}
			requireSynced(fmt.Sprintf("a client put via node %d in %q/%q", i, storage, access))
			if err := entry.Put(ctx, k[1], []byte("node"), storage, access); err != nil {
				t.Fatalf("Node.Put at node %d: %v", i, err)
			}
			requireSynced(fmt.Sprintf("Node.Put at node %d in %q/%q", i, storage, access))
			for _, key := range k[2:4] {
				if err := entry.Put(ctx, key, []byte("global"), "", ""); err != nil {
					t.Fatalf("global put at node %d: %v", i, err)
				}
			}
			requireSynced(fmt.Sprintf("global puts at node %d", i))
		}

		pushes := func() (records int64) {
			for _, n := range c.nodes {
				records += n.m.replicaPushChain.Value() + n.m.replicaPushHandoff.Value()
			}
			return records
		}
		// requireBatched runs one phase and fails unless its store2 batches
		// carried more records than there were batches.
		requireBatched := func(when string, records func() int64, phase func()) {
			t.Helper()
			batches, before := c.sent(msgStoreV2), records()
			phase()
			batches, sent := c.sent(msgStoreV2)-batches, records()-before
			if batches == 0 || sent <= batches {
				t.Fatalf("%s sent %d records in %d store2 batches, want several records per batch", when, sent, batches)
			}
			requireSynced(when)
		}
		requireBatched("a replication round", pushes, func() {
			for _, n := range c.nodes {
				n.replicateOnce(ctx)
			}
		})

		// Handoffs: node 0 holds three fresh records node 1 owns on the root
		// ring; its round hands them over in one batch, and the owner's round
		// pushes them to its partner in one more.
		from, owner := 0, 1
		var handed []uint64
		for _, key := range seededKeys(133, 400) {
			if c.ownerIn("", key) == owner && len(handed) < 3 {
				handed = append(handed, key)
				if err := c.nodes[from].storeLocalV2(storeRecord{Key: key, Value: []byte("handed")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.stores[from].Sync(); err != nil { // the test's own writes, not acked ones
			t.Fatal(err)
		}
		requireBatched("a round of handoffs", pushes, func() { c.nodes[from].replicateOnce(ctx) })
		requireBatched("the new owner's round", pushes, func() { c.nodes[owner].replicateOnce(ctx) })

		// Lose copies of global records on both sides of their replica sets —
		// the owner's copy of each node's third key, every other copy of its
		// fourth: the owner pulls back what it lost and pushes back what its
		// predecessor lost.
		lost := 0
		for i, key := range keys {
			if i%4 < 2 {
				continue
			}
			owner := c.ownerIn("", key)
			for _, h := range c.holders(key) {
				if (h == owner) == (i%4 == 2) {
					if existed, err := c.stores[h].Delete(key, "", "", false); err != nil || !existed {
						t.Fatalf("deleting key %#x at node %d: existed=%v err=%v", key, h, existed, err)
					}
					lost++
				}
			}
		}
		// And every copy of the handed-off records but the owner's: its
		// comparison pushes all three back in one batch.
		for _, key := range handed {
			for _, h := range c.holders(key) {
				if h != owner {
					if _, err := c.stores[h].Delete(key, "", "", false); err != nil {
						t.Fatal(err)
					}
					lost++
				}
			}
		}
		var pushed, pulled int
		requireBatched("an anti-entropy sweep", func() int64 { return int64(pushed) }, func() {
			for _, n := range c.nodes {
				st := n.AntiEntropyOnce(ctx)
				pushed += st.Pushed
				pulled += st.Pulled
			}
		})
		if pulled == 0 {
			t.Fatalf("anti-entropy after losing %d copies pushed %d and pulled %d, want both", lost, pushed, pulled)
		}
	})
}

// (k) A leaving notice ranks the leaver's successors into a list clockwise,
// so a list that was missing one of them stays in ring order and brackets
// keys where it should (listAnswer), and passes the notice on to the
// predecessor only while the list named the leaver: a second notice stops.
func TestApplyLeavingRanksHintsAndStopsChain(t *testing.T) {
	n, err := New(Config{ID: 1, Transport: transport.NewBus().Endpoint("self")})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	leaver, b, c, pred := Info{ID: 10, Addr: "x"}, Info{ID: 20, Addr: "b"}, Info{ID: 30, Addr: "c"}, Info{ID: 90, Addr: "p"}
	n.mu.Lock()
	n.succs[0] = []Info{leaver, c}
	n.preds[0] = pred
	n.mu.Unlock()
	notice := leavingReq{From: leaver, Succs: []Info{b, c}}
	if fwd := n.applyLeaving(notice); len(fwd) != 1 || fwd[0].Addr != pred.Addr {
		t.Errorf("passed on to %v, want the predecessor %v", fwd, pred)
	}
	if got := n.Successors(0); len(got) != 2 || got[0].Addr != b.Addr || got[1].Addr != c.Addr {
		t.Errorf("successors %v, want [b c]", got)
	}
	if fwd := n.applyLeaving(notice); len(fwd) != 0 {
		t.Errorf("a second notice passed on to %v: the chain must stop where the leaver is not listed", fwd)
	}
}
