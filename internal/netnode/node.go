package netnode

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

var (
	// ErrClosed is returned by operations on a closed node.
	ErrClosed = errors.New("netnode: node closed")
	// ErrNotFound is returned by Get when no accessible value exists.
	ErrNotFound = errors.New("netnode: key not found")
	// ErrBadDomain is returned when a storage/access domain does not relate
	// to the node's position as Section 4.1 requires.
	ErrBadDomain = errors.New("netnode: invalid storage/access domain")
	// errNotDurable is returned by Node.Put and Client.Put when the owner
	// could not make the write durable (statusNotDurable).
	errNotDurable = errors.New("netnode: the owner could not make the write durable")
)

// routeHopLimit bounds the forwarding chain of every routed message —
// lookup, get and put — defensively.
const routeHopLimit = 512

// stabilizeWalkLimit bounds the per-round predecessor walk of
// stabilizeLevel: in steady state the walk exits after one RPC, and after a
// join burst it may take up to one step per ring member that slotted in
// between a node and its stale successor.
const stabilizeWalkLimit = 64

// registrySize bounds the member hints a node keeps per domain in the
// membership registry.
const registrySize = 8

// traceBufferSize bounds the node's completed-trace ring buffer.
const traceBufferSize = 128

// Config configures a live node.
type Config struct {
	// Space is the identifier space; the zero value means the default
	// 32-bit space.
	Space id.Space
	// Name is the node's hierarchical domain name, e.g. "stanford/cs/db".
	// Empty means the node lives directly in the root domain.
	Name string
	// ID is the node's identifier. Set RandomID to draw one instead.
	ID uint64
	// RandomID draws the identifier from Rand.
	RandomID bool
	// Rand seeds nondeterministic choices; nil means a time-seeded source.
	Rand *rand.Rand
	// Transport carries the node's traffic.
	Transport transport.Transport
	// Geometry selects the routing geometry: GeometryCrescendo (Chord
	// fingers, the default when empty), GeometryKandy (XOR buckets) or
	// GeometryCacophony (harmonic links + 1-lookahead). Every node of a
	// cluster should run the same geometry; mixed clusters stay correct —
	// all geometries route clockwise over the same rings and agree on
	// ownership — but the link structure each side maintains is its own.
	Geometry string
	// SuccessorListLen is the per-level leaf-set length (default 4).
	SuccessorListLen int
	// ReplicationFactor is how many copies of each item exist, counting the
	// owner's: the owner pushes ReplicationFactor-1 replicas to its
	// predecessors within the item's home domain on the stabilization round
	// after a write, and again whenever its ring neighbors change;
	// anti-entropy keeps that replica set convergent. Values below 2
	// disable both (the default).
	ReplicationFactor int
	// Store is the node-local storage engine holding the node's items. Nil
	// means a volatile in-memory store (canonstore.NewMem) — the default
	// for tests and simulations; canond passes a canonstore.Disk when
	// -data-dir is set. The node owns the store and closes it on Close.
	Store canonstore.Store
	// SyncInterval is the target period between replica anti-entropy
	// rounds, rounded up to whole maintenance ticks. Zero means every
	// fourth tick; anti-entropy only runs while the maintenance loop does
	// (see Start) and only when ReplicationFactor enables replication.
	SyncInterval time.Duration
	// Retry governs RPC re-send behavior (attempts, backoff, per-attempt
	// timeout). The zero value means the defaults; see RetryPolicy.
	Retry RetryPolicy
	// Telemetry receives the node's metrics (counters, gauges, histograms).
	// Nil means a private registry, readable via Node.Telemetry(). Sharing a
	// registry across in-process nodes aggregates their series; Stats() then
	// reports the aggregate too.
	Telemetry *telemetry.Registry
	// TraceSampleRate samples this fraction of the lookups, gets and puts
	// the node originates (Lookup, LookupHops, Get, Put) into route traces
	// archived in the node's trace store (0 disables sampling; TracedLookup
	// is always traced regardless). Operations entering from a Client are
	// traced only when the client asks.
	TraceSampleRate float64
}

// Node is a live Canon participant running one of the routing geometries
// (Crescendo by default; see Config.Geometry).
type Node struct {
	cfg    Config
	space  id.Space
	self   Info
	levels int // depth of the leaf domain; chain levels are 0..levels
	geom   geomKind
	tr     transport.Transport
	rng    *rand.Rand
	retry  RetryPolicy
	health *healthTracker

	// Telemetry: the registry-backed metrics handles and the completed-trace
	// ring buffer this node archives into.
	tel    *telemetry.Registry
	m      *nodeMetrics
	traces *telemetry.TraceStore

	// nonceSeq numbers the node's requests. It starts at a draw from the
	// node's RNG, not at zero: receivers remember nonces (and replay the
	// cached reply) long after the sender is gone, so a node that restarts
	// on the same address must not walk the sequence its previous
	// incarnation used — its first requests would be answered with replies
	// to whatever the old process had asked under those numbers.
	nonceSeq atomic.Uint64

	// store holds the node's items (values, pointer records, replicas)
	// behind the canonstore.Store interface; it synchronizes internally,
	// so the RPC paths use it without taking the node lock.
	store canonstore.Store
	// clock is the node's Lamport-style write clock: stampVersion draws
	// fresh versions from it and observeVersion advances it past every
	// version seen on the wire, so local stamps always order after them.
	clock atomic.Uint64

	// Replication bookkeeping (storage.go): dirty holds the keys with
	// pending replication work — written since the last round, or left over
	// from a failed push — and placement is the per-level (predecessor,
	// successor) signature the last round ran against; a round that sees a
	// different one re-queues every stored key.
	replMu    sync.Mutex
	dirty     map[uint64]struct{}
	placement []Info

	// routing is the published epoch snapshot of the mutable tables below:
	// the forwarding hot path reads it lock-free, and every mutation of
	// preds/succs/fingers under mu republishes it (publishRoutingLocked).
	routing atomic.Pointer[routingView]

	mu       sync.Mutex
	preds    []Info   // per level
	succs    [][]Info // per level, ascending clockwise from self
	fingers  map[uint64]Info
	registry map[string][]Info // domain prefix -> member hints
	// looks and ests are Cacophony's lookahead state, refreshed wholesale by
	// each exchange round: looks maps (contact address, level) to the
	// clockwise distance from self to that contact's ring successor there
	// (flowing into viewCandidate.look); ests holds the per-level average of
	// the ring-size estimates neighbors reported (0 = none yet). Other
	// geometries leave both empty.
	looks  map[lookKey]uint64
	ests   []uint64
	closed bool

	loopCancel context.CancelFunc // ends the maintenance loop's context
	loopDone   chan struct{}
}

// New creates a node. It does not contact anyone; call Join.
func New(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("netnode: Config.Transport is required")
	}
	space := cfg.Space
	if space.Bits() == 0 {
		space = id.DefaultSpace()
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	nodeID := cfg.ID
	if cfg.RandomID {
		nodeID = uint64(space.Random(rng))
	}
	// The node keeps a private RNG seeded from the caller's: Config.Rand is
	// routinely shared across the nodes of a simulated cluster, and rand.Rand
	// is not safe for the concurrent use the maintenance loop and RPC retry
	// jitter would make of it. Deriving the seed here keeps runs with a fixed
	// Config.Rand deterministic.
	private := rand.New(rand.NewSource(rng.Int63()))
	if !space.Contains(id.ID(nodeID)) {
		return nil, fmt.Errorf("netnode: id %d outside %d-bit space", nodeID, space.Bits())
	}
	if cfg.SuccessorListLen <= 0 {
		cfg.SuccessorListLen = 4
	}
	geom, err := geometryByName(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	levels := len(components(cfg.Name))
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	store := cfg.Store
	if store == nil {
		store = canonstore.NewMem()
	}
	n := &Node{
		cfg:      cfg,
		space:    space,
		self:     Info{ID: nodeID, Name: cfg.Name, Addr: cfg.Transport.Addr()},
		levels:   levels,
		geom:     geom,
		tr:       cfg.Transport,
		rng:      private,
		retry:    cfg.Retry.withDefaults(),
		health:   newHealthTracker(),
		tel:      reg,
		m:        newNodeMetrics(reg, levels),
		traces:   telemetry.NewTraceStore(traceBufferSize),
		store:    store,
		dirty:    make(map[uint64]struct{}),
		preds:    make([]Info, levels+1),
		succs:    make([][]Info, levels+1),
		fingers:  make(map[uint64]Info),
		registry: make(map[string][]Info),
		ests:     make([]uint64, levels+1),
	}
	n.nonceSeq.Store(uint64(private.Uint32()))
	// A durable store may come back from disk already holding versioned
	// entries (a canond restart): advance the write clock past every
	// replayed version so fresh stamps order after pre-crash writes, and
	// seed the stored-keys gauge.
	store.ForEach(func(e canonstore.Entry) bool {
		n.observeVersion(e.Version)
		return true
	})
	n.m.storeItems.Set(float64(store.Keys()))
	// Publish the initial (empty) routing view before the transport can
	// deliver a lookup: the hot path loads it unconditionally.
	n.publishRouting()
	// Nonce-based dedup gives every handler at-most-once semantics under
	// caller retries and transport-level duplication.
	n.tr.Serve(transport.DedupHandler(n.handle, 4096))
	return n, nil
}

// Info returns the node's wire identity.
func (n *Node) Info() Info { return n.self }

// Telemetry returns the node's metrics registry (the one passed in
// Config.Telemetry, or the node-private registry).
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// TraceStore returns the node's completed-trace ring buffer: traces the node
// originated or served as the entry hop for.
func (n *Node) TraceStore() *telemetry.TraceStore { return n.traces }

// Levels returns the node's chain depth: level 0 is the root, Levels() is
// the leaf.
func (n *Node) Levels() int { return n.levels }

// clockwise is shorthand for the ring distance from a to b.
func (n *Node) clockwise(a, b uint64) uint64 {
	return n.space.Clockwise(id.ID(a), id.ID(b))
}

// sortClockwise orders list by clockwise distance from this node: the order
// of a successor list.
func (n *Node) sortClockwise(list []Info) {
	sort.Slice(list, func(i, j int) bool {
		return n.clockwise(n.self.ID, list[i].ID) < n.clockwise(n.self.ID, list[j].ID)
	})
}

// Join inserts the node into the network through the given contact address.
// An empty contact bootstraps a new network. Per Section 2.3, the node looks
// up its own identifier at every level of its chain, from the root ring
// down to its leaf domain, splices itself in after the predecessor found at
// each level, and eagerly notifies the nodes that would otherwise skip it:
// its successor there, and its predecessor, which passes the notify on to
// each further predecessor whose successor list the joiner enters. On the
// root ring the predecessor also hands the joiner the membership-registry
// entries whose domain keys it now owns. When Join returns, every successor
// list, predecessor and registry entry the join changed is already correct;
// no stabilization round is needed (a notify that fails is counted in
// canon_notify_failures_total and left to the next round).
func (n *Node) Join(ctx context.Context, contact string) error {
	if contact == "" {
		n.mu.Lock()
		for l := 0; l <= n.levels; l++ {
			n.succs[l] = nil
			n.preds[l] = n.self
		}
		n.publishRoutingLocked()
		n.mu.Unlock()
		n.registerSelf(ctx)
		return nil
	}
	// Find, for every level, a member of our domain to start the
	// constrained lookup from. The contact serves the levels it shares;
	// deeper domains are resolved through the membership registry.
	contactInfo, err := n.pingAddr(ctx, contact)
	if err != nil {
		return fmt.Errorf("netnode: contact %s: %w", contact, err)
	}
	shared := sharedLevels(n.self.Name, contactInfo.Name)
	for l := 0; l <= n.levels; l++ {
		prefix := prefixAt(n.self.Name, l)
		var seed Info
		switch {
		case l <= shared:
			seed = contactInfo
		default:
			seed, err = n.findMember(ctx, contactInfo, prefix)
			if err != nil {
				// First node in this domain: alone at this level.
				n.mu.Lock()
				n.succs[l] = nil
				n.preds[l] = n.self
				n.publishRoutingLocked()
				n.mu.Unlock()
				continue
			}
		}
		resp, err := n.lookupReqFrom(ctx, seed, lookupReq{Key: uint64(n.space.Sub(id.ID(n.self.ID), 1)), Prefix: prefix})
		if err != nil {
			return fmt.Errorf("netnode: join lookup at level %d: %w", l, err)
		}
		pred, succ := resp.Pred, resp.Succ
		if succ.IsZero() || succ.ID == n.self.ID {
			pred, succ = n.self, n.self
		}
		n.mu.Lock()
		n.succs[l] = nil
		if succ.Addr != n.self.Addr {
			n.succs[l] = []Info{succ}
		}
		n.preds[l] = pred
		n.publishRoutingLocked()
		n.mu.Unlock()
		// Eagerly notify the nodes that would erroneously skip the joiner
		// (Section 2.3): the successor, of its new predecessor, and the
		// predecessor, of its new successor — which passes the notify on to
		// the further predecessors whose successor lists the joiner enters.
		if succ.Addr != n.self.Addr {
			n.notify(ctx, succ.Addr, notifyReq{Level: l, From: n.self})
		}
		if !pred.IsZero() && pred.Addr != n.self.Addr {
			n.notify(ctx, pred.Addr, notifyReq{Level: l, From: n.self, AsSuccessor: true})
		}
	}
	// Pull successor lists, announce and register ourselves, and build
	// fingers.
	n.StabilizeOnce(ctx)
	n.FixFingers(ctx)
	return nil
}

// registerSelf records the node in the membership registry of every domain
// on its chain. A domain whose registry owner could not be found or reached
// is counted and retried by the next stabilization round.
func (n *Node) registerSelf(ctx context.Context) {
	for l := 0; l <= n.levels; l++ {
		prefix := prefixAt(n.self.Name, l)
		resp, err := n.lookupReqFrom(ctx, n.self, lookupReq{Key: domainKey(n.space, prefix)})
		switch {
		case err != nil:
		case resp.Pred.Addr == n.self.Addr:
			n.registerLocal(prefix, n.self)
		default:
			err = n.tell(ctx, resp.Pred.Addr, msgRegister, registerReq{Prefix: prefix, From: n.self})
		}
		if err != nil {
			n.m.registerFailures.Inc()
		}
	}
}

// findMember locates a live member of the named domain via the registry.
func (n *Node) findMember(ctx context.Context, seed Info, prefix string) (Info, error) {
	key := domainKey(n.space, prefix)
	resp, err := n.lookupReqFrom(ctx, seed, lookupReq{Key: key})
	if err != nil {
		return Info{}, err
	}
	req, err := transport.NewMessage(msgMembers, membersReq{Prefix: prefix})
	if err != nil {
		return Info{}, err
	}
	raw, err := n.call(ctx, resp.Pred.Addr, req)
	if err != nil {
		return Info{}, err
	}
	var members membersResp
	if err := raw.Decode(&members); err != nil {
		return Info{}, err
	}
	for _, m := range members.Members {
		if m.Addr == n.self.Addr {
			continue
		}
		if _, err := n.pingAddr(ctx, m.Addr); err == nil {
			return m, nil
		}
	}
	return Info{}, fmt.Errorf("netnode: no live member of %q", prefix)
}

func (n *Node) registerLocal(prefix string, who Info) {
	n.mu.Lock()
	defer n.mu.Unlock()
	members := n.registry[prefix]
	for i, m := range members {
		if m.Addr == who.Addr {
			members[i] = who
			return
		}
	}
	if len(members) >= registrySize {
		// Replace a random entry; stale entries get filtered by ping on use.
		members[n.rng.Intn(len(members))] = who
	} else {
		members = append(members, who)
	}
	n.registry[prefix] = members
}

func (n *Node) pingAddr(ctx context.Context, addr string) (Info, error) {
	req, err := transport.NewMessage(msgPing, nil)
	if err != nil {
		return Info{}, err
	}
	resp, err := n.call(ctx, addr, req)
	if err != nil {
		return Info{}, err
	}
	var info Info
	if err := resp.Decode(&info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// Start launches the background maintenance loop.
func (n *Node) Start(interval time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.loopCancel != nil || n.closed {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.loopCancel, n.loopDone = cancel, make(chan struct{})
	go n.maintainLoop(ctx, interval, n.loopDone)
}

// maintainLoop runs a maintenance round every interval until ctx ends.
//
// A round's only deadline is ctx, which Close cancels: every call in it is
// already bounded per attempt (RetryPolicy.AttemptTimeout in Node.call). A
// deadline of one interval per round would not be safe, because the attempt
// bound (2s by default) may be longer than the interval (1s in the bench
// cluster): a ping to a peer that hangs would then always end on the round's
// deadline, and a call failed by the caller's own deadline is rightly not
// evidence against the peer (call, overran), so the hung peer would never
// leave the successor lists. With no round deadline its attempts fail with
// time left, count against it, and the round drops it. A round that outlasts
// the interval only delays the next one: rounds run on this one goroutine,
// and the ticker drops the ticks it missed. A round that Close cuts short
// keeps the ring state it had not yet rewritten (overran).
func (n *Node) maintainLoop(ctx context.Context, interval time.Duration, done chan struct{}) {
	defer close(done)
	// Anti-entropy runs on a multiple of the maintenance tick: replica
	// divergence accrues slowly (it needs a missed push), so syncing every
	// round would spend tree exchanges on agreement.
	syncEvery := 4
	if n.cfg.SyncInterval > 0 {
		syncEvery = int((n.cfg.SyncInterval + interval - 1) / interval)
		if syncEvery < 1 {
			syncEvery = 1
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	tick := 0
	for {
		select {
		case <-ticker.C:
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
			tick++
			if tick%syncEvery == 0 {
				n.AntiEntropyOnce(ctx)
			}
		case <-ctx.Done():
			return
		}
	}
}

// Close stops maintenance, the transport and the storage engine. It does
// not announce departure; use Leave for a graceful exit. A durable store is
// sealed, not emptied: reopening it under the same Config.Store recovers
// every acked write.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	stop, done := n.loopCancel, n.loopDone
	n.mu.Unlock()
	if stop != nil {
		stop()
		<-done
	}
	err := n.tr.Close()
	if serr := n.store.Close(); err == nil {
		err = serr
	}
	return err
}

// Leave gracefully exits: stored items move to each item's new owner with
// their versions intact, and neighbors at every level are told to splice
// the node out. Close follows in every case; a record that could not be
// handed off is counted and makes Leave return an error saying how many.
func (n *Node) Leave(ctx context.Context) error {
	// Snapshot the store first: ForEach holds the store's lock, and the
	// handoff RPCs below must not run under it.
	var items []canonstore.Entry
	n.store.ForEach(func(e canonstore.Entry) bool {
		items = append(items, e)
		return true
	})
	n.mu.Lock()
	globalSuccs := append([]Info(nil), n.succs[0]...)
	// Every level's predecessor and first successor hear of the leave: the
	// predecessors pass it on to the further ones whose lists name us
	// (handleLeaving), the successors forget us as their predecessor.
	neighbors := append([]Info(nil), n.preds...)
	for _, list := range n.succs {
		if len(list) > 0 {
			neighbors = append(neighbors, list[0])
		}
	}
	n.mu.Unlock()

	lost := n.handOffLeaving(ctx, items)
	n.m.leaveHandoffFailures.Add(int64(lost))
	// Tell them we are going, handing them our successor list as repair
	// hints.
	seen := make(map[string]bool)
	for _, p := range neighbors {
		if p.IsZero() || p.Addr == n.self.Addr || seen[p.Addr] {
			continue
		}
		seen[p.Addr] = true
		if err := n.tell(ctx, p.Addr, msgLeaving, leavingReq{From: n.self, Succs: globalSuccs}); err != nil {
			n.m.leaveNotifyFailures.Inc()
		}
	}
	err := n.Close()
	if err == nil && lost > 0 {
		err = fmt.Errorf("netnode: leave: %d of %d stored records were not handed off", lost, len(items))
	}
	return err
}

// handOffLeaving hands every item to the node that owns its key once this
// node is gone, within its home domain (storage domain for values, access
// domain for pointer records) — one lookup per home domain, one run of
// store2 batches per next owner — and returns how many it could not.
func (n *Node) handOffLeaving(ctx context.Context, items []canonstore.Entry) (lost int) {
	next := make(map[string]Info) // home domain -> next owner; zero when there is none
	var out outbox
	for _, item := range items {
		home := entryHome(item)
		target, looked := next[home]
		if !looked {
			var err error
			target, err = n.Lookup(ctx, uint64(n.space.Sub(id.ID(n.self.ID), 1)), home)
			if err != nil || target.Addr == n.self.Addr {
				target = Info{}
			}
			next[home] = target
		}
		if target.IsZero() {
			lost++
			continue
		}
		out.add(target, recordFromEntry(item, true), true)
	}
	_, _, failed := out.send(ctx, n)
	return lost + len(failed)
}

// Successors returns a copy of the node's successor list at a level.
func (n *Node) Successors(level int) []Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	if level < 0 || level > n.levels {
		return nil
	}
	return append([]Info(nil), n.succs[level]...)
}

// Predecessor returns the node's predecessor at a level.
func (n *Node) Predecessor(level int) Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	if level < 0 || level > n.levels {
		return Info{}
	}
	return n.preds[level]
}

// Fingers returns a copy of the node's finger table.
func (n *Node) Fingers() []Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Info, 0, len(n.fingers))
	for _, f := range n.fingers {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
