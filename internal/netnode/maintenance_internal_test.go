package netnode

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

// ringState is what a maintenance round may rewrite at one node.
type ringState struct {
	preds    []Info
	succs    [][]Info
	fingers  map[uint64]Info
	looks    map[lookKey]uint64
	registry map[string][]Info
}

func ringStateOf(n *Node) ringState {
	n.mu.Lock()
	defer n.mu.Unlock()
	succs := make([][]Info, len(n.succs))
	for l, list := range n.succs {
		succs[l] = slices.Clone(list)
	}
	return ringState{
		preds: slices.Clone(n.preds), succs: succs,
		fingers: maps.Clone(n.fingers), looks: maps.Clone(n.looks), registry: maps.Clone(n.registry),
	}
}

// A round that runs out of its own time keeps the node's ring state: on the
// converged benchmark layout, under every geometry, StabilizeOnce,
// FixFingers and the geometry's own maintenance with an ended context leave
// every successor list, predecessor, finger, lookahead and registry entry
// as it was, and count the overrun. Before overran, every failed probe was
// taken for a dead peer: each node emptied its successor lists and dropped
// its predecessors. StabilizeOnce stops at level 0, before the geometry's
// step, so the test calls that step (Cacophony's lookahead exchange) itself.
func TestStabilizeOverrunKeepsState(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		c := newHierClusterGeom(t, geometry, 2)
		before := make([]ringState, len(c.nodes))
		for i, n := range c.nodes {
			before[i] = ringStateOf(n)
			if geometry == GeometryCacophony && len(before[i].looks) == 0 {
				t.Fatalf("node %d: no lookahead entries to keep", i)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, n := range c.nodes {
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
			n.geom.maintain(ctx, n)
		}
		want := int64(2) // the round and the finger refresh
		if geometry == GeometryCacophony {
			want++ // and the lookahead exchange
		}
		for i, n := range c.nodes {
			if after := ringStateOf(n); !reflect.DeepEqual(after, before[i]) {
				t.Errorf("node %d: ring state changed by jobs with an ended context:\nbefore %+v\nafter  %+v", i, before[i], after)
			}
			if got := n.m.maintenanceOverruns.Value(); got != want {
				t.Errorf("node %d: %d overruns counted, want %d", i, got, want)
			}
		}
	})
}

// A peer that hangs — it takes requests and never answers, so nothing
// fails until the caller's time runs out — leaves every successor list and
// predecessor slot of the nodes that keep running. The maintenance interval
// is shorter than the attempt bound on purpose: rounds have no deadline of
// their own, so each probe of the hung peer fails on the attempt bound,
// with the round's time left, and counts against the peer. Were a round cut
// at one interval, every such probe would end on the round's own deadline,
// say nothing about the peer (overran), and the peer would never leave.
func TestHungPeerLeavesLists(t *testing.T) {
	const attempt, interval = 50 * time.Millisecond, 5 * time.Millisecond
	c := &replCluster{bus: transport.NewBus(), retry: RetryPolicy{MaxAttempts: 1, AttemptTimeout: attempt}}
	for i := 0; i < 5; i++ {
		c.join(t, fmt.Sprintf("hung-%d", i), "", replNodeID(i), 1)
	}
	c.settle()
	const h = 2
	hung := c.nodes[h].self.Addr
	holds := func(n *Node) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return slices.ContainsFunc(n.succs[0], func(s Info) bool { return s.Addr == hung }) || n.preds[0].Addr == hung
	}
	if !holds(c.nodes[h-1]) || !holds(c.nodes[h+1]) {
		t.Fatal("the hung peer's ring neighbors do not know it before it hangs")
	}
	never := transport.Faults{DelayMin: time.Hour, DelayMax: time.Hour}
	for i, f := range c.faulty {
		if i == h {
			f.SetFaults(never) // the hung node's own requests hang too
		} else {
			f.SetPeerFaults(hung, never)
		}
	}
	for _, n := range c.nodes {
		n.Start(interval)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		// Every node at once: a neighbor's list can hand the peer back.
		i := slices.IndexFunc(c.nodes, func(n *Node) bool { return n.self.Addr != hung && holds(n) })
		if i < 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d still lists the hung peer: successors %v, predecessor %v",
				i, c.nodes[i].Successors(0), ringStateOf(c.nodes[i]).preds[0])
		}
		time.Sleep(interval)
	}
}

// A call that fails because the caller's own context ended is not evidence
// against the peer: any number of them leaves a live peer alive. The same
// failures against a closed peer, with time left, still count.
func TestOwnDeadlineIsNotPeerFailure(t *testing.T) {
	c := newReplCluster(t, 2, 1)
	a, b := c.nodes[0], c.nodes[1]
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	ping := func(ctx context.Context) error {
		msg, err := transport.NewMessage(msgPing, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = a.call(ctx, b.self.Addr, msg)
		return err
	}
	for i := 0; i < 2*deadThreshold; i++ {
		if err := ping(ended); err == nil {
			t.Fatal("a call with an ended context succeeded")
		}
	}
	if got := a.Health(b.self.Addr); got != PeerAlive {
		t.Errorf("live peer is %v after calls that failed on the caller's own deadline, want alive", got)
	}
	b.Close()
	for i := 0; i < deadThreshold; i++ {
		if err := ping(context.Background()); err == nil {
			t.Fatal("a call to a closed node succeeded")
		}
	}
	if got := a.Health(b.self.Addr); got != PeerDead {
		t.Errorf("closed peer is %v after %d failed calls, want dead", got, deadThreshold)
	}
}

// Start → Close leaves no goroutine behind: after maintenance loops have run
// rounds on every node, Close returns and the goroutine count falls back to
// its value before Start. A loop without a stop path fails here — one whose
// stop case does not return makes Close wait forever, which the watchdog
// turns into a failure with every goroutine's stack. The nodes are the
// test's own, with no Close in a cleanup, so a Close that hangs cannot hang
// the test after it has failed.
func TestNodeCloseStopsGoroutines(t *testing.T) {
	bus := transport.NewBus()
	var nodes []*Node
	for i := 0; i < 4; i++ {
		n, err := New(Config{ID: replNodeID(i), Transport: bus.Endpoint(fmt.Sprintf("close-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		contact := ""
		if i > 0 {
			contact = nodes[0].self.Addr
		}
		if err := n.Join(context.Background(), contact); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	pings := func(n *Node) int64 { return n.m.sentCounter(msgPing).Value() }
	started := make([]int64, len(nodes))
	for i, n := range nodes {
		started[i] = pings(n)
	}
	before := runtime.NumGoroutine()
	for _, n := range nodes {
		n.Start(time.Millisecond)
	}
	stacks := func() string {
		buf := make([]byte, 1<<16)
		return string(buf[:runtime.Stack(buf, true)])
	}
	closed := make(chan struct{})
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
		close(closed)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, n := range nodes {
		for pings(n) == started[i] {
			if time.Now().After(deadline) {
				go closeAll()
				t.Fatalf("node %d ran no maintenance round", i)
			}
			runtime.Gosched()
		}
	}
	go closeAll()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("Close did not return within 10s:\n%s", stacks())
	}
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Start:\n%s", runtime.NumGoroutine(), before, stacks())
		}
		runtime.Gosched()
	}
}

// blackHole is a peer that never answers: a call to it ends only with its
// context. Rather than wait for that, Call records the deadline the client
// gave it and fails as the call would once the deadline passed; with no
// deadline it fails at once, because that call would never have returned.
type blackHole struct {
	transport.Transport
	deadline time.Time
}

var errNoDeadline = errors.New("call has no deadline: a black-hole peer would hold it forever")

func (h *blackHole) Call(ctx context.Context, _ string, _ transport.Message) (transport.Message, error) {
	dl, ok := ctx.Deadline()
	if !ok {
		return transport.Message{}, errNoDeadline
	}
	h.deadline = dl
	return transport.Message{}, context.DeadlineExceeded
}

// A client request to a peer that never answers ends by clientCallTimeout
// when the caller set no deadline; a caller's own deadline is kept as is.
// Requests made with context.Background share one deadline window, so each
// is bounded by between half of clientCallTimeout and all of it.
func TestClientCallBoundedWithoutDeadline(t *testing.T) {
	hole := &blackHole{Transport: transport.NewBus().Endpoint("client")}
	cl := NewClient(hole)
	ping := func(ctx context.Context) time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := cl.Ping(ctx, "black-hole"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ping: %v, want a deadline error", err)
		}
		return hole.deadline.Sub(start)
	}
	for i := 0; i < 2; i++ {
		if d := ping(context.Background()); d < clientCallTimeout/2 || d > clientCallTimeout+time.Minute {
			t.Errorf("background ping %d: bound %v, want within [%v, %v]", i, d, clientCallTimeout/2, clientCallTimeout)
		}
	}
	open, stop := context.WithCancel(context.Background())
	defer stop()
	if d := ping(open); d < clientCallTimeout || d > clientCallTimeout+time.Minute {
		t.Errorf("cancelable ping: bound %v, want clientCallTimeout (%v)", d, clientCallTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	want, _ := ctx.Deadline()
	ping(ctx)
	if !hole.deadline.Equal(want) {
		t.Errorf("deadline %v reached the transport, want the caller's %v", hole.deadline, want)
	}
}

// handBuilt makes one node per name on a fresh bus, with identifiers
// 1<<28, 2<<28, … in that order, and joins none of them: the test writes
// the ring state it needs with setLevel.
func handBuilt(t *testing.T, geometry string, succListLen int, names ...string) []*Node {
	t.Helper()
	bus := transport.NewBus()
	nodes := make([]*Node, len(names))
	for i, name := range names {
		id := uint64(i+1) << 28
		n, err := New(Config{
			Name: name, ID: id, Geometry: geometry, SuccessorListLen: succListLen,
			Rand: rand.New(rand.NewSource(int64(i))), Transport: bus.Endpoint(fmt.Sprintf("hand-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	return nodes
}

// setLevel writes one level of n's ring state: its successor list and
// predecessor there.
func setLevel(n *Node, level int, pred Info, succs ...Info) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.succs[level] = succs
	n.preds[level] = pred
	n.publishRoutingLocked()
}

// ringConsistent reports how the level-l ring of the members of prefix
// differs from the sorted ring: every member's first successor and
// predecessor there must be its clockwise neighbors. members is ascending
// by identifier.
func ringConsistent(members []*Node, level int) error {
	for i, n := range members {
		want := members[(i+1)%len(members)].self
		wantPred := members[(i+len(members)-1)%len(members)].self
		n.mu.Lock()
		succs, pred := slices.Clone(n.succs[level]), n.preds[level]
		n.mu.Unlock()
		if len(succs) == 0 || succs[0].Addr != want.Addr || pred.Addr != wantPred.Addr {
			return fmt.Errorf("%s (%d) at level %d: successors %v, predecessor %d; want successor %d, predecessor %d",
				n.self.Addr, n.self.ID, level, infoIDs(succs), pred.ID, want.ID, wantPred.ID)
		}
	}
	return nil
}

func infoIDs(list []Info) []uint64 {
	ids := make([]uint64, len(list))
	for i, s := range list {
		ids[i] = s.ID
	}
	return ids
}

// TestStabilizeFoldMergesSplitRing guards stabilizeLevel's cross-level fold.
// Ring north of A < B < C < D (A and C in north/a, B and D in north/b) has
// split into the two consistent cycles A-C and B-D, one per leaf — the
// state a burst of joins through different contacts can leave. Pure
// successor/predecessor stabilization keeps it forever: each node's
// successor names it as predecessor and lists nothing else. The root ring,
// A-B-C-D, is the only evidence, and the fold is what reads it: one round
// on every node merges ring north. Without the fold it is still split after
// three.
func TestStabilizeFoldMergesSplitRing(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		nodes := handBuilt(t, geometry, 4, "north/a", "north/b", "north/a", "north/b")
		for i, n := range nodes {
			next := func(k int) Info { return nodes[(i+k)%4].self }
			setLevel(n, 0, next(3), next(1), next(2), next(3))
			setLevel(n, 1, next(2), next(2)) // the split: only the leaf partner
			setLevel(n, 2, next(2), next(2))
		}
		ctx := context.Background()
		var err error
		for round := 1; round <= 3; round++ {
			for _, n := range nodes {
				n.StabilizeOnce(ctx)
			}
			if err = ringConsistent(nodes, 1); err == nil {
				t.Logf("ring north merged after %d round(s)", round)
				return
			}
		}
		t.Fatalf("ring north still split after 3 rounds: %v", err)
	})
}

// TestStabilizeRegistryEscapeJoinsSplitDomain guards StabilizeOnce's
// registry "alone" escape. X and Y are the first two members of the new
// domain south/x and each believes it is alone in south and south/x — what
// two concurrent first joins leave when neither finds the other in the
// registry. No list names the other: on the root ring four north nodes sit
// between them each way, past a successor list of two, and no fingers are
// built. The registry is the only place both names meet, and the escape is
// what reads it: X finds Y there and the two rings close within three
// rounds. Without the escape both stay singletons.
func TestStabilizeRegistryEscapeJoinsSplitDomain(t *testing.T) {
	forEachGeometry(t, func(t *testing.T, geometry string) {
		// Root ring order: X, north, north, Y, north, north.
		nodes := handBuilt(t, geometry, 2, "south/x", "north", "north", "south/x", "north", "north")
		for i, n := range nodes {
			next := func(k int) Info { return nodes[(i+k)%len(nodes)].self }
			setLevel(n, 0, next(len(nodes)-1), next(1), next(2))
			for l := 1; l <= n.levels; l++ {
				setLevel(n, l, n.self) // alone in every domain below the root
			}
		}
		// The north ring is whole, so only south's rings are in question.
		north := []*Node{nodes[1], nodes[2], nodes[4], nodes[5]}
		for i, n := range north {
			setLevel(n, 1, north[(i+3)%4].self, north[(i+1)%4].self, north[(i+2)%4].self)
		}
		x, y := nodes[0], nodes[3]
		ctx := context.Background()
		var err error
		for round := 1; round <= 3; round++ {
			for _, n := range []*Node{y, x} { // Y registers before X looks
				n.StabilizeOnce(ctx)
			}
			err = errors.Join(ringConsistent([]*Node{x, y}, 1), ringConsistent([]*Node{x, y}, 2))
			if err == nil {
				t.Logf("south and south/x joined after %d round(s)", round)
				return
			}
		}
		t.Fatalf("south/x still split after 3 rounds: %v", err)
	})
}
