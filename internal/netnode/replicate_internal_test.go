package netnode

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// The write-proportional replication suite: every test drives rounds by
// hand on the in-memory bus and counts RPCs from the nodes' own
// canon_rpc_sent_total series — no sleeps, no wall clock.

// replCluster is a flat cluster (one ring, level 0 only) with node i at
// identifier (i+1)<<28, so every test can name the owner of a key and its
// predecessors by index. Each node sends through a transport.Faulty with
// no faults installed.
type replCluster struct {
	bus    *transport.Bus
	nodes  []*Node
	faulty []*transport.Faulty
}

func replNodeID(i int) uint64 { return uint64(i+1) << 28 }

func newReplCluster(t *testing.T, size, replicas int) *replCluster {
	t.Helper()
	c := &replCluster{bus: transport.NewBus()}
	for i := 0; i < size; i++ {
		c.join(t, fmt.Sprintf("repl-%d", i), replNodeID(i), replicas)
	}
	for r := 0; r < 4; r++ {
		c.round()
		for _, n := range c.nodes {
			n.FixFingers(context.Background())
		}
	}
	return c
}

// join adds one node through node 0 (or bootstraps the ring).
func (c *replCluster) join(t *testing.T, addr string, nodeID uint64, replicas int) *Node {
	t.Helper()
	f := transport.NewFaulty(c.bus.Endpoint(addr), 1, transport.Faults{})
	n, err := New(Config{
		ID: nodeID, Rand: rand.New(rand.NewSource(int64(nodeID))),
		Transport: f, ReplicationFactor: replicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	contact := ""
	if len(c.nodes) > 0 {
		contact = c.nodes[0].self.Addr
	}
	if err := n.Join(context.Background(), contact); err != nil {
		t.Fatal(err)
	}
	c.nodes = append(c.nodes, n)
	c.faulty = append(c.faulty, f)
	return n
}

// round runs one stabilization round on every node, in ring order.
func (c *replCluster) round(skip ...int) {
	for i, n := range c.nodes {
		if len(skip) > 0 && skip[0] == i {
			continue
		}
		n.StabilizeOnce(context.Background())
	}
}

// sent sums the first-attempt requests of one type over the cluster.
func (c *replCluster) sent(msgType string) int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.m.sentFixed[msgType].Value()
	}
	return total
}

// roundSent runs one round and returns how many store2 and neighbors
// requests it sent.
func (c *replCluster) roundSent() (store2, neighbors int64) {
	s, nb := c.sent(msgStoreV2), c.sent(msgNeighbors)
	c.round()
	return c.sent(msgStoreV2) - s, c.sent(msgNeighbors) - nb
}

func dirtyKeys(n *Node) int {
	n.replMu.Lock()
	defer n.replMu.Unlock()
	return len(n.dirty)
}

func (c *replCluster) requireClean(t *testing.T) {
	t.Helper()
	for i, n := range c.nodes {
		if d := dirtyKeys(n); d != 0 {
			t.Fatalf("node %d still has %d dirty keys", i, d)
		}
	}
}

func holds(n *Node, key uint64) bool { return len(n.store.Get(key, nil)) > 0 }

// putOwned stores count keys inside node i's arc, through node i itself,
// and returns them.
func (c *replCluster) putOwned(t *testing.T, i, count int) []uint64 {
	t.Helper()
	keys := make([]uint64, count)
	for j := range keys {
		keys[j] = replNodeID(i) + uint64(j+1)*1000
		if err := c.nodes[i].Put(context.Background(), keys[j], []byte(fmt.Sprintf("v-%d", keys[j])), "", ""); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// (a) Once a cluster has converged, rounds send no replication traffic: no
// store2 at all, and exactly the neighbors queries ring stabilization sends
// with empty stores.
func TestReplicationQuietWhenConverged(t *testing.T) {
	c := newReplCluster(t, 5, 3)
	_, idleNeighbors := c.roundSent()
	for i := range c.nodes {
		c.putOwned(t, i, 8)
	}
	c.round()
	c.round()
	c.requireClean(t)
	var fullPasses int64
	for _, n := range c.nodes {
		fullPasses += n.m.replicaFullPasses.Value()
	}
	for r := 0; r < 5; r++ {
		store2, neighbors := c.roundSent()
		if store2 != 0 || neighbors != idleNeighbors {
			t.Fatalf("quiet round %d sent %d store2 and %d neighbors, want 0 and %d", r, store2, neighbors, idleNeighbors)
		}
	}
	c.requireClean(t)
	for _, n := range c.nodes {
		fullPasses -= n.m.replicaFullPasses.Value()
	}
	if fullPasses != 0 {
		t.Fatalf("quiet rounds ran %d full passes", -fullPasses)
	}
	// Every owner's two predecessors hold its keys: quiet means converged,
	// not idle.
	for i := range c.nodes {
		key := replNodeID(i) + 1000
		for back := 1; back <= 2; back++ {
			if p := c.nodes[(i-back+len(c.nodes))%len(c.nodes)]; !holds(p, key) {
				t.Fatalf("predecessor %d of node %d lacks key %#x", back, i, key)
			}
		}
	}
}

// (b) One write costs ReplicationFactor-1 pushes in the next round (plus
// the one neighbors query that walks from the first partner to the second)
// and nothing in the round after: the replica does not echo the record
// back to its owner.
func TestReplicationOnePutOneRoundOfPushes(t *testing.T) {
	c := newReplCluster(t, 5, 3)
	_, idleNeighbors := c.roundSent()
	c.putOwned(t, 2, 1)
	store2, neighbors := c.roundSent()
	if store2 != 2 || neighbors != idleNeighbors+1 {
		t.Fatalf("round after a put sent %d store2 and %d neighbors, want 2 and %d", store2, neighbors, idleNeighbors+1)
	}
	if got := c.nodes[2].m.replicaPushChain.Value(); got != 2 {
		t.Fatalf("chain pushes = %d, want 2", got)
	}
	store2, neighbors = c.roundSent()
	if store2 != 0 || neighbors != idleNeighbors {
		t.Fatalf("second round after a put sent %d store2 and %d neighbors, want 0 and %d", store2, neighbors, idleNeighbors)
	}
	c.requireClean(t)
}

// (c) A join that splits an owned arc: the old owner hands the moved keys
// off, the new owner replicates what it inherited, and every key stays
// readable through every node.
func TestReplicationFollowsArcSplit(t *testing.T) {
	c := newReplCluster(t, 4, 2)
	keys := c.putOwned(t, 1, 10)
	c.round()
	c.requireClean(t)

	joiner := c.join(t, "repl-joiner", keys[4]+1, 2) // inherits keys[5:]
	c.round()
	c.round()
	if got := c.nodes[1].m.replicaPushHandoff.Value(); got != 5 {
		t.Fatalf("old owner handed off %d records, want 5", got)
	}
	if got := joiner.m.replicaPushChain.Value(); got != 5 {
		t.Fatalf("new owner pushed %d chain replicas, want 5", got)
	}
	for _, key := range keys[5:] {
		if !holds(joiner, key) {
			t.Fatalf("new owner lacks inherited key %#x", key)
		}
	}
	ctx := context.Background()
	for i, n := range c.nodes {
		for _, key := range keys {
			want := fmt.Sprintf("v-%d", key)
			if got, err := n.Get(ctx, key); err != nil || string(got) != want {
				t.Fatalf("get %#x through node %d = %q, %v, want %q", key, i, got, err, want)
			}
		}
	}
	if store2, _ := c.roundSent(); store2 != 0 {
		t.Fatalf("round after the split settled sent %d store2, want 0", store2)
	}
	c.requireClean(t)
}

// (d) A push that fails is a retry signal: the key stays dirty while the
// predecessor is unreachable and is pushed exactly once after the heal.
func TestReplicationRetriesFailedPush(t *testing.T) {
	c := newReplCluster(t, 4, 2)
	owner, pred := c.nodes[2], c.nodes[1]
	key := c.putOwned(t, 2, 1)[0]

	c.faulty[2].Partition(pred.self.Addr)
	// The replication step alone: a whole stabilization round would first
	// drop the unreachable predecessor from the view.
	owner.replicateOnce(context.Background())
	if holds(pred, key) || dirtyKeys(owner) != 1 || owner.m.replicaPushFailures.Value() != 1 {
		t.Fatalf("partitioned push: pred holds=%v dirty=%d failures=%d, want false, 1, 1",
			holds(pred, key), dirtyKeys(owner), owner.m.replicaPushFailures.Value())
	}
	c.faulty[2].Heal(pred.self.Addr)

	if store2, _ := c.roundSent(); store2 != 1 || !holds(pred, key) {
		t.Fatalf("first round after heal sent %d store2 (pred holds=%v), want 1 and true", store2, holds(pred, key))
	}
	if store2, _ := c.roundSent(); store2 != 0 {
		t.Fatalf("second round after heal sent %d store2, want 0", store2)
	}
	c.requireClean(t)
}

// Ring maintenance and repair retry every round, so they pass no failure up;
// each one is counted instead. The ring successor of the root domain's
// registry owner has that node as registry, ring neighbor and replica
// partner at once: cut off from it, it fails to register, to notify and to
// compare, and says so three times.
func TestMaintenanceFailuresAreCounted(t *testing.T) {
	c := newReplCluster(t, 4, 2)
	ctx := context.Background()
	registry, err := c.nodes[0].Lookup(ctx, domainKey(c.nodes[0].space, ""), "")
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	for c.nodes[r].self.ID != registry.ID {
		r++
	}
	i := (r + 1) % len(c.nodes)
	n := c.nodes[i]
	c.faulty[i].Partition(registry.Addr)
	n.registerSelf(ctx)
	n.notify(ctx, registry.Addr, notifyReq{From: n.self, AsSuccessor: true})
	n.AntiEntropyOnce(ctx)
	for j, peer := range c.nodes {
		want := int64(0)
		if j == i {
			want = 1
		}
		for name, got := range map[string]int64{
			mnRegisterFail: peer.m.registerFailures.Value(),
			mnNotifyFail:   peer.m.notifyFailures.Value(),
			mnAESyncFail:   peer.m.antiEntropySyncFailures.Value(),
		} {
			if got != want {
				t.Errorf("node %d (the cut-off one is %d): %s = %d, want %d", j, i, name, got, want)
			}
		}
	}
}

// (e) A predecessor crash changes the owner's placement signature twice —
// the dead predecessor is dropped, the next one notifies — and the second
// change re-replicates every owned primary.
func TestReplicationFollowsPredecessorCrash(t *testing.T) {
	c := newReplCluster(t, 5, 2)
	keys := c.putOwned(t, 3, 6)
	c.round()
	c.requireClean(t)
	if holds(c.nodes[1], keys[0]) {
		t.Fatal("second predecessor holds a replica at ReplicationFactor 2")
	}

	c.bus.SetDown(c.nodes[2].self.Addr, true)
	c.round(2)
	c.round(2)
	for _, key := range keys {
		if !holds(c.nodes[1], key) {
			t.Fatalf("new predecessor lacks key %#x two rounds after the crash", key)
		}
	}
}

// (f) A round whose context has already expired pushes nothing and loses
// nothing.
func TestReplicationExpiredRoundKeepsDirtyKeys(t *testing.T) {
	c := newReplCluster(t, 4, 2)
	keys := c.putOwned(t, 2, 5)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	before := c.sent(msgStoreV2)
	c.nodes[2].replicateOnce(expired)
	if got := c.sent(msgStoreV2) - before; got != 0 || dirtyKeys(c.nodes[2]) != len(keys) {
		t.Fatalf("expired round sent %d store2 and left %d dirty keys, want 0 and %d", got, dirtyKeys(c.nodes[2]), len(keys))
	}
	if store2, _ := c.roundSent(); store2 != int64(len(keys)) {
		t.Fatalf("next round sent %d store2, want %d", store2, len(keys))
	}
	for _, key := range keys {
		if !holds(c.nodes[1], key) {
			t.Fatalf("predecessor lacks key %#x", key)
		}
	}
	c.requireClean(t)
}

// Writes racing the round land in the next round's set: whatever store
// handlers apply while replicateOnce runs is still pushed, exactly as if
// it had arrived between rounds.
func TestReplicationConcurrentWritesNotLost(t *testing.T) {
	c := newReplCluster(t, 3, 2)
	owner, pred := c.nodes[1], c.nodes[0]
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				key := replNodeID(1) + uint64(w*perWriter+j+1)
				if err := owner.Put(context.Background(), key, []byte("racing"), "", ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		owner.replicateOnce(context.Background())
	}
	c.requireClean(t)
	for k := 1; k <= writers*perWriter; k++ {
		if key := replNodeID(1) + uint64(k); !holds(pred, key) {
			t.Fatalf("predecessor lacks key %#x written during the rounds", key)
		}
	}
}

// A graceful leave hands every record to its next owner or says how many it
// could not: with the next owner partitioned away the leaver still closes,
// counts each record and returns an error naming the number; healed, the
// same leave is clean and the next owner holds every key.
func TestLeaveReportsFailedHandoffs(t *testing.T) {
	for _, partitioned := range []bool{true, false} {
		c := newReplCluster(t, 4, 1)
		leaver, next := c.nodes[2], c.nodes[1]
		keys := c.putOwned(t, 2, 3)
		if partitioned {
			c.faulty[2].Partition(next.self.Addr)
		}
		err := leaver.Leave(context.Background())
		lost := leaver.m.leaveHandoffFailures.Value()
		// next is also the leaver's only predecessor, the one node told.
		if untold := leaver.m.leaveNotifyFailures.Value(); (untold == 1) != partitioned {
			t.Errorf("partitioned=%v: %d leave notifications counted as failed", partitioned, untold)
		}
		leaver.mu.Lock()
		closed := leaver.closed
		leaver.mu.Unlock()
		if !closed {
			t.Errorf("partitioned=%v: leave did not close the node", partitioned)
		}
		if !partitioned {
			if err != nil || lost != 0 {
				t.Errorf("clean leave: err %v, %d failures counted", err, lost)
			}
			for _, key := range keys {
				if !holds(next, key) {
					t.Errorf("clean leave: next owner lacks key %#x", key)
				}
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "3 of 3") || lost != 3 {
			t.Errorf("partitioned leave: err %v, %d failures counted, want an error naming 3 of 3 and 3", err, lost)
		}
		for _, key := range keys {
			if holds(next, key) {
				t.Errorf("partitioned leave: key %#x reached the partitioned owner", key)
			}
		}
	}
}
