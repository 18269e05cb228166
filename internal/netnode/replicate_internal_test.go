package netnode

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/transport"
)

// The write-proportional replication suite: every test drives rounds by
// hand on the in-memory bus and counts RPCs from the nodes' own
// canon_rpc_sent_total series — no sleeps, no wall clock.

// replCluster is a bus cluster whose members' identifiers the test chose, so
// every test can name the owner of a key and its predecessors. Each node
// sends through a lockProbe over a transport.Faulty with no faults installed.
// newReplCluster builds the flat one (one ring, level 0 only) with node i at
// identifier (i+1)<<28; newHierCluster the benchmark's two-level topology.
// Nodes join with the cluster's geometry and retry policy, the defaults
// unless a test set them first.
type replCluster struct {
	tripped  atomic.Bool // shared by the nodes' lock probes
	bus      *transport.Bus
	nodes    []*Node
	faulty   []*transport.Faulty
	batches  batchLog
	geometry string
	retry    RetryPolicy
}

// batchLog records every store2 batch that left a node through its Faulty
// (so not one a partition dropped): its destination and its encoded size.
type batchLog struct {
	mu   sync.Mutex
	sent []sentBatch
}

type sentBatch struct {
	to    string
	bytes int
}

func (l *batchLog) since(mark int) []sentBatch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sentBatch(nil), l.sent[mark:]...)
}

func (l *batchLog) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sent)
}

// loggedTransport is the transport under a node's Faulty: it writes the
// store2 batches the node sends into the cluster's batchLog.
type loggedTransport struct {
	transport.Transport
	log *batchLog
}

func (t loggedTransport) Call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	if batch, ok := msg.Body.(storeBatch); ok {
		enc, _ := batch.AppendBinary(nil)
		t.log.mu.Lock()
		t.log.sent = append(t.log.sent, sentBatch{to: addr, bytes: len(enc)})
		t.log.mu.Unlock()
	}
	return t.Transport.Call(ctx, addr, msg)
}

func replNodeID(i int) uint64 { return uint64(i+1) << 28 }

func newReplCluster(t *testing.T, size, replicas int) *replCluster {
	t.Helper()
	c := &replCluster{bus: transport.NewBus()}
	for i := 0; i < size; i++ {
		c.join(t, fmt.Sprintf("repl-%d", i), "", replNodeID(i), replicas)
	}
	c.settle()
	return c
}

// settle runs the rounds a freshly joined cluster needs to converge.
func (c *replCluster) settle() {
	for r := 0; r < 4; r++ {
		c.round()
		for _, n := range c.nodes {
			n.FixFingers(context.Background())
		}
	}
}

// join adds one node, named into the hierarchy, through node 0 (or
// bootstraps the ring).
func (c *replCluster) join(t *testing.T, addr, name string, nodeID uint64, replicas int) *Node {
	t.Helper()
	f := transport.NewFaulty(loggedTransport{c.bus.Endpoint(addr), &c.batches}, 1, transport.Faults{})
	n, err := newProbedNode(t, &c.tripped, f, Config{
		Name: name, ID: nodeID, Rand: rand.New(rand.NewSource(int64(nodeID))),
		ReplicationFactor: replicas, Geometry: c.geometry, Retry: c.retry,
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

	joiner := c.join(t, "repl-joiner", "", keys[4]+1, 2) // inherits keys[5:]
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

// A full pass sends each partner its records in ceil(bytes/storeBatchBytes)
// batches, each within the budget: 25 records of 100 KiB are 3 batches per
// partner at ReplicationFactor 3, not 25 RPCs.
func TestReplicationBatchesSplitAtBudget(t *testing.T) {
	c := newReplCluster(t, 5, 3)
	owner := c.nodes[2]
	ctx := context.Background()
	value := make([]byte, 100<<10)
	var keys []uint64
	recordBytes := 0
	for j := 1; j <= 25; j++ {
		key := replNodeID(2) + uint64(j)*1000
		if err := owner.Put(ctx, key, value, "", ""); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		enc := encoder(nil)
		rec := recordFromEntry(owner.store.Get(key, nil)[0], true)
		rec.wire(&enc)
		recordBytes += len(enc.b)
	}
	want := (recordBytes + storeBatchBytes - 1) / storeBatchBytes
	if want < 2 {
		t.Fatalf("%d bytes of records fit one batch; the test must cross the budget", recordBytes)
	}
	mark := c.batches.mark()
	owner.replicateOnce(ctx)
	perPartner := make(map[string]int)
	for _, b := range c.batches.since(mark) {
		perPartner[b.to]++
		if b.bytes > storeBatchBytes {
			t.Errorf("a batch to %s is %d bytes, over the %d-byte budget", b.to, b.bytes, storeBatchBytes)
		}
	}
	partners := []*Node{c.nodes[1], c.nodes[0]}
	if len(perPartner) != len(partners) {
		t.Fatalf("batches went to %v, want the %d partners", perPartner, len(partners))
	}
	for _, p := range partners {
		if got := perPartner[p.self.Addr]; got != want {
			t.Errorf("partner %s got %d batches for %d bytes of records, want %d", p.self.Addr, got, recordBytes, want)
		}
		for _, key := range keys {
			if !holds(p, key) {
				t.Fatalf("partner %s lacks key %#x", p.self.Addr, key)
			}
		}
	}
	if got := owner.m.replicaPushChain.Value(); got != int64(len(partners)*len(keys)) {
		t.Errorf("chain pushes = %d, want %d records", got, len(partners)*len(keys))
	}
	c.requireClean(t)
}

// At ReplicationFactor 3 with the second partner cut off, the first
// partner's batch lands and a handoff to a third node lands too; only the
// keys of the failed batch stay dirty, counted once each, and they are
// pushed in the first round after the heal — one batch per partner — and
// never again.
func TestReplicationPartitionedPartnerBatch(t *testing.T) {
	c := newReplCluster(t, 5, 3)
	ctx := context.Background()
	owner, near, far, other := c.nodes[2], c.nodes[1], c.nodes[0], c.nodes[3]
	keys := c.putOwned(t, 2, 4)
	// A record the owner holds but node 3 owns: the round hands it off.
	handed := replNodeID(3) + 1000
	if err := owner.storeLocalV2(storeRecord{Key: handed, Value: []byte("handed")}); err != nil {
		t.Fatal(err)
	}

	c.faulty[2].Partition(far.self.Addr)
	owner.replicateOnce(ctx)
	for _, key := range keys {
		if !holds(near, key) || holds(far, key) {
			t.Fatalf("key %#x: near partner holds=%v, far partner holds=%v; want true, false", key, holds(near, key), holds(far, key))
		}
	}
	if !holds(other, handed) {
		t.Fatal("the handoff to node 3 did not land")
	}
	if d, f := dirtyKeys(owner), owner.m.replicaPushFailures.Value(); d != len(keys) || f != int64(len(keys)) {
		t.Fatalf("after the partitioned round: %d dirty keys and %d failures, want %d and %d", d, f, len(keys), len(keys))
	}
	other.replicateOnce(ctx) // node 3 replicates what it inherited
	c.faulty[2].Heal(far.self.Addr)

	if store2, _ := c.roundSent(); store2 != 2 {
		t.Fatalf("first round after the heal sent %d store2, want 2 (one batch per partner)", store2)
	}
	for _, key := range keys {
		if !holds(far, key) {
			t.Fatalf("far partner lacks key %#x after the heal", key)
		}
	}
	if store2, _ := c.roundSent(); store2 != 0 {
		t.Fatalf("second round after the heal sent %d store2, want 0", store2)
	}
	c.requireClean(t)
}

// A batch the receiver refuses — here its store fails — lands nothing:
// every key in it is re-queued and counted, and the next round after the
// receiver recovers pushes them all in one batch.
func TestReplicationRefusedBatchRequeues(t *testing.T) {
	c := newReplCluster(t, 4, 2)
	ctx := context.Background()
	owner, pred := c.nodes[2], c.nodes[1]
	keys := c.putOwned(t, 2, 6)
	// The nodes run no maintenance loop, so the store can be swapped here.
	refusing := &failingStore{Store: pred.store}
	refusing.fail.Store(true)
	pred.store = refusing

	before := c.sent(msgStoreV2)
	owner.replicateOnce(ctx)
	if got := c.sent(msgStoreV2) - before; got != 1 {
		t.Fatalf("the round sent %d store2, want 1", got)
	}
	if d, f, pushed := dirtyKeys(owner), owner.m.replicaPushFailures.Value(), owner.m.replicaPushChain.Value(); d != len(keys) || f != int64(len(keys)) || pushed != 0 {
		t.Fatalf("refused batch: %d dirty keys, %d failures, %d pushes counted; want %d, %d, 0", d, f, pushed, len(keys), len(keys))
	}

	refusing.fail.Store(false)
	before = c.sent(msgStoreV2)
	owner.replicateOnce(ctx)
	if got := c.sent(msgStoreV2) - before; got != 1 || dirtyKeys(owner) != 0 {
		t.Fatalf("after recovery the round sent %d store2 and left %d dirty keys, want 1 and 0", got, dirtyKeys(owner))
	}
	for _, key := range keys {
		if !holds(pred, key) {
			t.Fatalf("predecessor lacks key %#x", key)
		}
	}
}

// A store2 batch is checked whole before any record is applied: each record
// must be homed on a ring the receiver is on — the access domain for a
// pointer record, the storage domain for anything else, including a record
// whose Pointer has an identifier but no address (it is stored as a value).
// Either record alone, or beside a valid one, refuses the batch with
// ErrBadDomain and leaves the store untouched.
func TestStore2ChecksHomeDomain(t *testing.T) {
	c := newHierCluster(t, 1)
	ctx := context.Background()
	west := c.nodes[0] // west/a
	valid := storeRecord{Key: 1, Value: []byte("ok"), Storage: "west", Access: "", Version: 3}
	pointerElsewhere := storeRecord{Key: 2, Storage: "west/a", Access: "east",
		Pointer: Info{ID: 9, Name: "west/a", Addr: "hier-9"}, Version: 3}
	addresslessPointer := storeRecord{Key: 3, Value: []byte("v"), Storage: "east", Access: "east",
		Pointer: Info{ID: 9}, Version: 3}
	for name, batch := range map[string][]storeRecord{
		"pointer record outside its access domain":   {pointerElsewhere},
		"pointer without an address outside storage": {addresslessPointer},
		"valid record beside both":                   {valid, pointerElsewhere, addresslessPointer},
	} {
		msg, err := transport.NewMessage(msgStoreV2, storeBatch{Entries: batch})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := west.handle(ctx, "test", msg); !errors.Is(err, ErrBadDomain) {
			t.Errorf("%s: %v, want ErrBadDomain", name, err)
		}
		for _, rec := range batch {
			if holds(west, rec.Key) {
				t.Errorf("%s: key %d was applied from a refused batch", name, rec.Key)
			}
		}
	}
	msg, err := transport.NewMessage(msgStoreV2, storeBatch{Entries: []storeRecord{valid}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := west.handle(ctx, "test", msg); err != nil || !holds(west, valid.Key) {
		t.Fatalf("the valid record alone: %v (held=%v), want it applied", err, holds(west, valid.Key))
	}
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
	// One batch carries all five keys to the one partner.
	if store2, _ := c.roundSent(); store2 != 1 {
		t.Fatalf("next round sent %d store2, want 1", store2)
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

// hierTopology is the benchmark's cluster (bench/workload.go): two top-level
// domains, two leaf domains each, two nodes each.
var hierTopology = []struct {
	id   uint64
	name string
}{
	{1898122680, "west/a"}, {1424232574, "west/a"},
	{2448338018, "west/b"}, {853820631, "west/b"},
	{2839335395, "east/a"}, {3940604394, "east/a"},
	{347470738, "east/b"}, {3359944329, "east/b"},
}

func newHierCluster(t *testing.T, replicas int) *replCluster {
	t.Helper()
	return newHierClusterGeom(t, "", replicas)
}

// newHierClusterGeom is newHierCluster under the named geometry.
func newHierClusterGeom(t *testing.T, geometry string, replicas int) *replCluster {
	t.Helper()
	c := &replCluster{bus: transport.NewBus(), geometry: geometry}
	for i, m := range hierTopology {
		c.join(t, fmt.Sprintf("hier-%d", i), m.name, m.id, replicas)
	}
	c.settle()
	return c
}

// hierBefore names, from the identifiers alone, the member of the domain
// ring `home` closest counter-clockwise to the ring point at: the owner of a
// key (footnote 3 of the paper) when at is the key, a node's ring
// predecessor when at is one below its identifier.
func hierBefore(home string, at uint64) int {
	space := id.DefaultSpace()
	best, bestDist := -1, uint64(0)
	for i, m := range hierTopology {
		if !inDomain(m.name, home) {
			continue
		}
		if d := space.Clockwise(id.ID(m.id), id.ID(at)); best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// hierReplicaSet is the placement rule at ReplicationFactor 2, stated from
// the identifiers: the key's owner on the home ring and that owner's
// predecessor there.
func hierReplicaSet(home string, key uint64) (owner, pred int) {
	owner = hierBefore(home, key)
	return owner, hierBefore(home, hierTopology[owner].id-1)
}

// holdings maps every record identity held anywhere in the cluster to the
// sorted indexes of the nodes holding a copy.
func (c *replCluster) holdings() (held map[entryIdent][]int, copies int) {
	held = make(map[entryIdent][]int)
	for i, n := range c.nodes {
		n.store.ForEach(func(e canonstore.Entry) bool {
			ident := identOfEntry(e)
			held[ident] = append(held[ident], i)
			copies++
			return true
		})
	}
	return held, copies
}

// sweep runs one anti-entropy round on every node and sums the repairs.
func (c *replCluster) sweep() (pushed, pulled int) {
	for _, n := range c.nodes {
		st := n.AntiEntropyOnce(context.Background())
		pushed += st.Pushed
		pulled += st.Pulled
	}
	return pushed, pulled
}

// One replica set per record, on a hierarchy: every record — global value,
// domain-scoped value, pointer record — is held by its home-ring owner and
// that owner's home-ring predecessor and by nobody else; anti-entropy on the
// converged cluster moves nothing, still repairs a lost replica on a
// non-root home ring, and the predecessor's copy answers once the owner is
// gone.
func TestHierarchicalReplicaSet(t *testing.T) {
	c := newHierCluster(t, 2)
	ctx := context.Background()

	// 400 records, 3 global : 1 homed at the writer's top-level domain; half
	// of the scoped ones are readable globally, which adds a pointer record
	// homed at the root wherever the two owners differ.
	want := make(map[entryIdent][]int)
	expect := func(ident entryIdent, home string) {
		owner, pred := hierReplicaSet(home, ident.key)
		set := []int{owner, pred}
		slices.Sort(set)
		want[ident] = set
	}
	rng := rand.New(rand.NewSource(19))
	var westKey, globalKey uint64
	for j := 0; j < 400; j++ {
		key := uint64(rng.Uint32())
		writer := j % len(c.nodes)
		storage, access := "", ""
		if j%4 == 3 {
			storage = prefixAt(hierTopology[writer].name, 1)
			access = storage
			if j%8 == 7 {
				access = ""
			}
		}
		if err := c.nodes[writer].Put(ctx, key, []byte(fmt.Sprintf("v-%d", key)), storage, access); err != nil {
			t.Fatal(err)
		}
		expect(entryIdent{key, storage, access, false}, storage)
		if access != storage && hierBefore(access, key) != hierBefore(storage, key) {
			expect(entryIdent{key, storage, access, true}, access)
		}
		switch {
		case storage == "west" && access == "west":
			westKey = key
		case storage == "":
			globalKey = key
		}
	}
	c.round()
	c.round()
	c.requireClean(t)

	requirePlaced := func(when string) {
		t.Helper()
		held, copies := c.holdings()
		if len(held) != len(want) || copies != 2*len(want) {
			t.Fatalf("%s: %d records in %d copies, want %d in %d", when, len(held), copies, len(want), 2*len(want))
		}
		for ident, set := range want {
			if !slices.Equal(held[ident], set) {
				t.Fatalf("%s: record %+v held by nodes %v, want owner and predecessor %v", when, ident, held[ident], set)
			}
		}
	}
	requirePlaced("after replication")

	store2 := c.sent(msgStoreV2)
	for r := 0; r < 3; r++ {
		if pushed, pulled := c.sweep(); pushed != 0 || pulled != 0 {
			t.Fatalf("anti-entropy sweep %d on the converged cluster pushed %d and pulled %d, want 0 and 0", r, pushed, pulled)
		}
	}
	if got := c.sent(msgStoreV2) - store2; got != 0 {
		t.Fatalf("three anti-entropy sweeps sent %d store2, want 0", got)
	}
	requirePlaced("after anti-entropy")

	// Repair: lose the predecessor's copy of one west-homed and one global
	// record; the owners' next comparison pushes back exactly those two.
	for _, lost := range []struct {
		home string
		key  uint64
	}{{"west", westKey}, {"", globalKey}} {
		_, pred := hierReplicaSet(lost.home, lost.key)
		if existed, err := c.nodes[pred].store.Delete(lost.key, lost.home, lost.home, false); err != nil || !existed {
			t.Fatalf("deleting the %q replica of key %#x at node %d: existed=%v err=%v", lost.home, lost.key, pred, existed, err)
		}
	}
	if pushed, pulled := c.sweep(); pushed != 2 || pulled != 0 {
		t.Fatalf("sweep after losing two replicas pushed %d and pulled %d, want 2 and 0", pushed, pulled)
	}
	requirePlaced("after repair")

	// Owner crash: a reader elsewhere in west still gets the west-homed key,
	// and only the predecessor's copy can be what answered.
	owner, pred := hierReplicaSet("west", westKey)
	if err := c.nodes[owner].Close(); err != nil {
		t.Fatal(err)
	}
	reader := -1
	for i, m := range hierTopology {
		if inDomain(m.name, "west") && i != owner && i != pred {
			reader = i
		}
	}
	wantValue := fmt.Sprintf("v-%d", westKey)
	if got, err := c.nodes[reader].Get(ctx, westKey); err != nil || string(got) != wantValue {
		t.Fatalf("get %#x through node %d after its owner %d closed = %q, %v, want %q from predecessor %d",
			westKey, reader, owner, got, err, wantValue, pred)
	}
}
