package netnode

import (
	"context"
	"fmt"
	"slices"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/transport"
)

// entryHome returns the domain whose ring an entry is placed by: the
// storage domain for values, the access domain for pointer records (which
// live at the access-domain owner, Section 4.1).
func entryHome(e canonstore.Entry) string {
	if e.IsPointer() {
		return e.Access
	}
	return e.Storage
}

// entryFromReq converts a wire store request into a storage-engine entry.
func entryFromReq(q storeReq2) canonstore.Entry {
	return canonstore.Entry{
		Key: q.Key, Value: q.Value, Storage: q.Storage, Access: q.Access,
		PtrID: q.Pointer.ID, PtrName: q.Pointer.Name, PtrAddr: q.Pointer.Addr,
		Level: q.Level, Version: q.Version,
	}
}

// reqFromEntry converts a stored entry back into a wire store request,
// version included — replica pushes, handoffs and repairs must carry the
// origin's version, never restamp.
func reqFromEntry(e canonstore.Entry, replica bool) storeReq2 {
	return storeReq2{
		Key: e.Key, Value: e.Value, Storage: e.Storage, Access: e.Access,
		Pointer: Info{ID: e.PtrID, Name: e.PtrName, Addr: e.PtrAddr},
		Replica: replica, Level: e.Level, Version: e.Version,
	}
}

// stampVersion draws the next write version from the node's Lamport clock.
func (n *Node) stampVersion() uint64 { return n.clock.Add(1) }

// observeVersion advances the clock to at least v, so stamps drawn after
// seeing a remote version order after it.
func (n *Node) observeVersion(v uint64) {
	for {
		cur := n.clock.Load()
		if cur >= v || n.clock.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Put stores value under key with the given storage and access domains
// (Section 4.1): the storage domain must contain this node and the access
// domain must contain the storage domain; both are hierarchical name
// prefixes ("" = global). The value lands at the key's owner within the
// storage domain; a wider access domain additionally places a pointer at
// the access domain's owner. Versions are stamped by the receiving owner
// (Version 0 on the wire), so each record has a single stamper while its
// ownership holds.
func (n *Node) Put(ctx context.Context, key uint64, value []byte, storagePath, accessPath string) error {
	if !inDomain(n.self.Name, storagePath) {
		return fmt.Errorf("%w: storage %q does not contain %q", ErrBadDomain, storagePath, n.self.Name)
	}
	if !inDomain(storagePath, accessPath) {
		return fmt.Errorf("%w: access %q does not contain storage %q", ErrBadDomain, accessPath, storagePath)
	}
	owner, err := n.Lookup(ctx, key, storagePath)
	if err != nil {
		return fmt.Errorf("netnode: put lookup: %w", err)
	}
	if err := n.storeAt(ctx, owner, storeReq2{
		Key: key, Value: value, Storage: storagePath, Access: accessPath,
		Level: prefixLevel(storagePath),
	}); err != nil {
		return err
	}
	if accessPath != storagePath {
		ptrOwner, err := n.Lookup(ctx, key, accessPath)
		if err != nil {
			return fmt.Errorf("netnode: pointer lookup: %w", err)
		}
		if ptrOwner.Addr != owner.Addr {
			if err := n.storeAt(ctx, ptrOwner, storeReq2{
				Key: key, Storage: storagePath, Access: accessPath, Pointer: owner,
				Level: prefixLevel(accessPath),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (n *Node) storeAt(ctx context.Context, target Info, req storeReq2) error {
	if target.Addr == n.self.Addr {
		if err := n.storeLocalV2(req); err != nil {
			return err
		}
		// Local writes get the same durability barrier a remote store ack
		// implies (fsync-on-ack, docs/STORAGE.md).
		return n.store.Sync()
	}
	msg, err := transport.NewMessage(msgStoreV2, req)
	if err != nil {
		return err
	}
	resp, err := n.call(ctx, target.Addr, msg)
	if err != nil {
		return fmt.Errorf("netnode: store at %s: %w", target.Addr, err)
	}
	var empty struct{}
	return resp.Decode(&empty)
}

// storeLocal applies a legacy (v1) store request: the receiver stamps a
// fresh version, because the v1 wire form carries none.
func (n *Node) storeLocal(req storeReq) error {
	home := req.Storage
	if !req.Pointer.IsZero() {
		home = req.Access
	}
	return n.storeLocalV2(storeReq2{
		Key: req.Key, Value: req.Value, Storage: req.Storage, Access: req.Access,
		Pointer: req.Pointer, Replica: req.Replica,
		Level: prefixLevel(home),
	})
}

// storeLocalV2 writes one entry into the node's storage engine. Version 0
// means a fresh write the node stamps itself; any other version is a
// transferred record whose history must be preserved, so the clock only
// observes it. The stored-keys gauge is refreshed on every write path —
// overwrites included, which the pre-engine code missed.
func (n *Node) storeLocalV2(req storeReq2) error {
	n.m.storeWrites.Inc()
	if req.Version == 0 {
		req.Version = n.stampVersion()
	} else {
		n.observeVersion(req.Version)
	}
	e := entryFromReq(req)
	applied, err := n.store.Put(e)
	if err != nil {
		return err
	}
	if applied && n.mustPropagate(req, e) {
		n.markDirty(e.Key)
	}
	n.m.storeItems.Set(float64(n.store.Keys()))
	return nil
}

// Get retrieves the first value for key that this node may access, probing
// its domains from the most local outward so that locally stored content is
// found without the query leaving the domain. Failed probes count into the
// fetch-error metric instead of vanishing, and owners at more local levels
// that answered empty before the hit are read-repaired from the serving
// owner, so the next local read stays local.
func (n *Node) Get(ctx context.Context, key uint64) ([]byte, error) {
	asked := make(map[string]bool)
	var missed []Info
	for l := n.levels; l >= 0; l-- {
		prefix := prefixAt(n.self.Name, l)
		owner, err := n.Lookup(ctx, key, prefix)
		if err != nil {
			n.m.fetchErrors.Inc()
			continue
		}
		if asked[owner.Addr] {
			continue
		}
		asked[owner.Addr] = true
		values, err := n.fetchFrom(ctx, owner, key)
		if err != nil {
			n.m.fetchErrors.Inc()
			continue
		}
		if len(values) == 0 {
			missed = append(missed, owner)
			continue
		}
		for _, v := range values {
			if v.Pointer.IsZero() {
				n.readRepair(ctx, owner, key, missed)
				return v.Value, nil
			}
			// Resolve the indirection at the storing node.
			resolved, err := n.fetchFrom(ctx, v.Pointer, key)
			if err != nil {
				n.m.fetchErrors.Inc()
				continue
			}
			for _, rv := range resolved {
				if rv.Pointer.IsZero() && rv.Access == v.Access {
					n.readRepair(ctx, owner, key, missed)
					return rv.Value, nil
				}
			}
		}
	}
	return nil, ErrNotFound
}

// readRepair pushes the entries the serving owner holds for key to the
// owners probed before it that answered empty. The entries are pulled
// versioned (syncpull) and pushed verbatim as replicas: read repair moves
// copies, it never creates new versions. Best-effort on a read path —
// failures are dropped, anti-entropy will catch what it missed.
func (n *Node) readRepair(ctx context.Context, from Info, key uint64, missed []Info) {
	if len(missed) == 0 {
		return
	}
	entries, err := n.syncPullFrom(ctx, from, syncPullReq{Key: key})
	if err != nil || len(entries) == 0 {
		return
	}
	for _, target := range missed {
		for _, e := range entries {
			e.Replica = true
			if err := n.storeAt(ctx, target, e); err == nil {
				n.m.readRepairs.Inc()
			}
		}
	}
}

func (n *Node) fetchFrom(ctx context.Context, target Info, key uint64) ([]fetchValue, error) {
	req := fetchReq{Key: key, Origin: n.self.Name}
	if target.Addr == n.self.Addr {
		return n.fetchLocal(req), nil
	}
	msg, err := transport.NewMessage(msgFetch, req)
	if err != nil {
		return nil, err
	}
	raw, err := n.call(ctx, target.Addr, msg)
	if err != nil {
		return nil, err
	}
	var resp fetchResp
	if err := raw.Decode(&resp); err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// fetchLocal returns the values (and pointers) for key that a querier named
// origin may access: those whose access domain contains the querier.
func (n *Node) fetchLocal(req fetchReq) []fetchValue {
	n.m.fetchReads.Inc()
	var buf [4]canonstore.Entry
	entries := n.store.Get(req.Key, buf[:0])
	var out []fetchValue
	for _, e := range entries {
		if !inDomain(req.Origin, e.Access) {
			continue
		}
		var ptr Info
		if e.IsPointer() {
			ptr = Info{ID: e.PtrID, Name: e.PtrName, Addr: e.PtrAddr}
		}
		out = append(out, fetchValue{Value: e.Value, Access: e.Access, Pointer: ptr})
	}
	return out
}

// StoredKeys returns how many keys this node currently holds.
func (n *Node) StoredKeys() int {
	return n.store.Keys()
}

// ownsLocally reports whether, by the node's published routing view, it is
// the owner of key within the domain at the given chain level: keys in
// [self.ID, successor.ID) belong to it (footnote 3 of the paper).
func (n *Node) ownsLocally(key uint64, level int) bool {
	return ownsInView(n.routing.Load(), key, level)
}

// ownsInView is ownsLocally against one epoch snapshot, so a replication
// round makes all its placement decisions from a single consistent view.
func ownsInView(v *routingView, key uint64, level int) bool {
	if level < 0 || level > v.levels {
		return false
	}
	succ := v.succAt(level)
	if succ.Addr == v.self.Addr {
		return true
	}
	return v.space.Clockwise(id.ID(v.self.ID), id.ID(key)) <
		v.space.Clockwise(id.ID(v.self.ID), id.ID(succ.ID))
}

// placedLevel returns an entry's home level d — the depth of its home
// domain — and the level of the ring whose key-owner should hold this copy:
// the entry's own level annotation when it names a ring at or below d on
// this node's chain, d otherwise. d > v.levels means the home domain is
// deeper than this node's chain reaches.
func placedLevel(v *routingView, e canonstore.Entry) (d, placed int) {
	d = prefixLevel(entryHome(e))
	if e.Level < d || e.Level > v.levels {
		return d, d
	}
	return d, e.Level
}

// markDirty queues key for the next replication round.
func (n *Node) markDirty(key uint64) {
	n.replMu.Lock()
	n.dirty[key] = struct{}{}
	n.m.replicaDirty.Set(float64(len(n.dirty)))
	n.replMu.Unlock()
}

// mustPropagate reports whether an applied write leaves this node with
// replication work: a fresh (non-replica) write always does; a transferred
// record does only when the node owns it at its placement level — a
// handoff receiver replicates what it inherits, while a chain replica
// landing on a predecessor must not echo back to its owner.
func (n *Node) mustPropagate(req storeReq2, e canonstore.Entry) bool {
	if !req.Replica {
		return true
	}
	v := n.routing.Load()
	d, placed := placedLevel(v, e)
	return d <= v.levels && ownsInView(v, e.Key, placed)
}

// takeDirty hands the round its work: the keys written since the last
// round, or every stored key when the placement signature — per level, the
// chain target preds[l] and the end of the owned arc succAt(l) — differs
// from the last round's (a join, a death, a predecessor change). The set is
// swapped out rather than drained in place, so a write racing the round
// lands in the next round's set and is never lost to a delete.
func (n *Node) takeDirty(v *routingView) map[uint64]struct{} {
	sig := make([]Info, 0, 2*(v.levels+1))
	for l := 0; l <= v.levels; l++ {
		sig = append(sig, v.preds[l], v.succAt(l))
	}
	n.replMu.Lock()
	defer n.replMu.Unlock()
	if !slices.Equal(sig, n.placement) {
		n.placement = sig
		n.m.replicaFullPasses.Inc()
		n.store.ForEach(func(e canonstore.Entry) bool {
			n.dirty[e.Key] = struct{}{}
			return true
		})
	}
	if len(n.dirty) == 0 {
		return nil
	}
	keys := n.dirty
	n.dirty = make(map[uint64]struct{})
	n.m.replicaDirty.Set(0)
	return keys
}

// replicateOnce enforces Section 4's placement, against one routing-view
// epoch, for every key with pending replication work (see takeDirty):
//
//   - An entry whose placement-level ownership moved (a join spliced a new
//     owner into the range, or this is a replica whose primary lives
//     elsewhere) is handed to the current owner, versions intact; the local
//     copy stays behind as an extra replica until eviction policy exists.
//   - A primary (an entry at its home level that this node owns) is pushed
//     to the ReplicationFactor-1 nearest predecessors within its home
//     domain — under the paper's responsibility rule a dead node's range is
//     inherited by its predecessor, so predecessors are the nodes that must
//     hold the replicas — and re-placed on every deeper ring of this node's
//     chain at that ring's key owner, level-annotated, so each nested
//     domain can serve the key locally.
//
// A key leaves the dirty set only when every push for it succeeded: a
// failed push, or a round that runs out of its context, re-queues it for
// the next round. Called from StabilizeOnce so replicas follow ring repairs.
func (n *Node) replicateOnce(ctx context.Context) {
	v := n.routing.Load()
	keys := n.takeDirty(v)
	if len(keys) == 0 {
		return
	}
	buf := make([]canonstore.Entry, 0, 4)
	for key := range keys {
		if ctx.Err() != nil {
			n.markDirty(key)
			continue
		}
		for _, e := range n.store.Get(key, buf) {
			if !n.replicateEntry(ctx, v, e) {
				n.m.replicaPushFailures.Inc()
				n.markDirty(key)
				break
			}
		}
	}
}

// replicateEntry applies the placement rules to one stored entry and
// reports whether every push it needed succeeded.
func (n *Node) replicateEntry(ctx context.Context, v *routingView, e canonstore.Entry) bool {
	d, placed := placedLevel(v, e)
	if d > v.levels {
		return true
	}
	if !ownsInView(v, e.Key, placed) {
		return n.handOff(ctx, e, placed)
	}
	if e.Level != d {
		return true // a per-level copy we own: the primary refreshes it
	}
	ok := n.pushChainReplicas(ctx, v, e, d)
	for l := d + 1; l <= v.levels; l++ {
		ok = n.pushLevelCopy(ctx, v, e, l) && ok
	}
	return ok
}

// pushChainReplicas pushes one owned primary to its replica partners on
// its home-level ring.
func (n *Node) pushChainReplicas(ctx context.Context, v *routingView, e canonstore.Entry, level int) bool {
	if n.cfg.ReplicationFactor < 2 {
		return true
	}
	req, err := transport.NewMessage(msgStoreV2, reqFromEntry(e, true))
	if err != nil {
		return false
	}
	return n.walkReplicaChain(ctx, v, level, func(partner Info) error {
		if _, err := n.call(ctx, partner.Addr, req); err != nil {
			return err
		}
		n.m.replicaPushChain.Inc()
		return nil
	}) == nil
}

// walkReplicaChain visits the node's replica partners at a level — its
// ReplicationFactor-1 nearest predecessors on that ring — nearest first,
// walking pred pointers through neighbor queries. It stops at the first
// error, and after the last partner without asking who precedes it.
func (n *Node) walkReplicaChain(ctx context.Context, v *routingView, level int, visit func(partner Info) error) error {
	target := v.preds[level]
	for left := n.cfg.ReplicationFactor - 1; left > 0 && !target.IsZero() && target.Addr != v.self.Addr; left-- {
		if err := visit(target); err != nil {
			return err
		}
		if left == 1 {
			break
		}
		var err error
		if target, err = n.predecessorOf(ctx, target, level); err != nil {
			return err
		}
	}
	return nil
}

// pushLevelCopy places a copy of an owned primary at the key's owner on
// the level-l ring of this node's chain, annotated with that level — the
// paper's per-level storage domains made live.
func (n *Node) pushLevelCopy(ctx context.Context, v *routingView, e canonstore.Entry, l int) bool {
	owner, err := n.Lookup(ctx, e.Key, v.prefixes[l])
	if err != nil {
		return false
	}
	if owner.Addr == v.self.Addr {
		return true
	}
	req := reqFromEntry(e, true)
	req.Level = l
	if err := n.storeAt(ctx, owner, req); err != nil {
		return false
	}
	n.m.replicaPushLevel.Inc()
	return true
}

// handOff pushes an entry this node no longer owns at its placement level
// to the current owner within the entry's home domain.
func (n *Node) handOff(ctx context.Context, e canonstore.Entry, level int) bool {
	prefix := prefixAt(n.self.Name, level)
	if !inDomain(prefix, entryHome(e)) {
		return true // the entry's home domain is not on our chain; nothing to do
	}
	owner, err := n.Lookup(ctx, e.Key, prefix)
	if err != nil {
		return false
	}
	if owner.Addr == n.self.Addr {
		return true
	}
	req := reqFromEntry(e, true)
	req.Level = level
	if err := n.storeAt(ctx, owner, req); err != nil {
		return false
	}
	n.m.replicaPushHandoff.Inc()
	return true
}

// predecessorOf asks a remote node for its predecessor at a level.
func (n *Node) predecessorOf(ctx context.Context, who Info, level int) (Info, error) {
	req, err := transport.NewMessage(msgNeighbors, neighborsReq{Level: level})
	if err != nil {
		return Info{}, err
	}
	raw, err := n.call(ctx, who.Addr, req)
	if err != nil {
		return Info{}, err
	}
	var resp neighborsResp
	if err := raw.Decode(&resp); err != nil {
		return Info{}, err
	}
	return resp.Pred, nil
}
