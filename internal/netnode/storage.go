package netnode

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/transport"
)

// Placement (Section 4.1, docs/STORAGE.md Section 6) is one rule: a record's
// replica set is the owner of its key on its home ring plus that owner's
// ReplicationFactor-1 nearest predecessors on the same ring. Its home is the
// storage domain for a value and the access domain for a pointer record
// (entryHome); the owner of a key on a ring is the member with the key in
// [self, successor) (ownsInView); the predecessors are walked by
// walkReplicaChain. The routed put, the replication round, handoff, graceful
// leave and anti-entropy all place by these three functions and nothing
// stores a second opinion: no record is kept on any other ring, and a copy
// carries no note of where it was placed.

// entryHome returns the domain whose ring an entry is placed by: the
// storage domain for values, the access domain for pointer records (which
// live at the access-domain owner, Section 4.1).
func entryHome(e canonstore.Entry) string {
	if e.IsPointer() {
		return e.Access
	}
	return e.Storage
}

// entryFromRecord converts a wire store record into a storage-engine entry.
func entryFromRecord(q storeRecord) canonstore.Entry {
	return canonstore.Entry{
		Key: q.Key, Value: q.Value, Storage: q.Storage, Access: q.Access,
		PtrID: q.Pointer.ID, PtrName: q.Pointer.Name, PtrAddr: q.Pointer.Addr,
		Version: q.Version,
	}
}

// recordFromEntry converts a stored entry back into a wire store record,
// version included — replica pushes, handoffs and repairs must carry the
// origin's version, never restamp.
func recordFromEntry(e canonstore.Entry, replica bool) storeRecord {
	return storeRecord{
		Key: e.Key, Value: e.Value, Storage: e.Storage, Access: e.Access,
		Pointer: Info{ID: e.PtrID, Name: e.PtrName, Addr: e.PtrAddr},
		Replica: replica, Version: e.Version,
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
// the access domain's owner. The node is the entry of a routed put
// (handlePut), exactly as if a client had sent it one; when
// Config.TraceSampleRate is set, a sampled fraction of puts record a route
// trace into the node's TraceStore.
func (n *Node) Put(ctx context.Context, key uint64, value []byte, storagePath, accessPath string) error {
	resp, err := n.handlePut(ctx, &putReq{
		Key: key, Value: value, Storage: storagePath, Access: accessPath, routeHeader: n.newRoute(false),
	})
	if err != nil {
		return err
	}
	return putStatusErr(resp.Status, storagePath, accessPath, n.self.Name)
}

// putStatusErr turns a put reply's status into the caller-facing error,
// naming the domains the entry node rejected.
func putStatusErr(status int, storagePath, accessPath, entry string) error {
	err := statusErr(status)
	if status == statusBadDomain {
		return fmt.Errorf("%w: storage %q must contain the entry node %q and access %q must contain the storage domain",
			err, storagePath, entry, accessPath)
	}
	return err
}

// handlePut serves a routed put. At the entry node (Hops == 0) it validates
// the two domain rules and sends the record — and, when the access domain is
// wider than the storage domain, a pointer record naming the value's owner —
// down their routes; everywhere else it carries one record a hop further or
// applies it. Versions are stamped by the owner that applies the record, so
// each record has a single stamper while its ownership holds. A traced put
// traces the value record's route; the pointer record's hops count in Hops.
func (n *Node) handlePut(ctx context.Context, req *putReq) (putResp, error) {
	if req.Hops != 0 {
		return n.routePut(ctx, req)
	}
	if !inDomain(n.self.Name, req.Storage) || !inDomain(req.Storage, req.Access) {
		return putResp{Status: statusBadDomain}, nil
	}
	// The entry builds the records itself: a Pointer in a client's request
	// is not part of the operation and is dropped here.
	resp, err := n.routePut(ctx, &putReq{
		Key: req.Key, Value: req.Value, Storage: req.Storage, Access: req.Access, routeHeader: req.routeHeader,
	})
	if err != nil || resp.Status != statusOK {
		return resp, err
	}
	if req.Access != req.Storage {
		ptr, err := n.routePut(ctx, &putReq{
			Key: req.Key, Storage: req.Storage, Access: req.Access, Pointer: resp.Owner,
			routeHeader: routeHeader{Hops: resp.Hops},
		})
		if err != nil || ptr.Status != statusOK {
			return ptr, err
		}
		resp.Hops = ptr.Hops
	}
	n.finishEntry(n.m.putHops, &req.routeHeader, &resp.routeHeader, req.Key, req.Storage)
	return resp, nil
}

// routePut moves one record along the greedy route inside its home domain
// and, where the route ends, applies it: the write hits the store and the
// durability barrier before the reply is built (fsync-on-ack, docs/STORAGE.md;
// TestAckedWritesAreSynced). A store failure there is the answer
// statusNotDurable, so the node before it takes it back to the entry rather
// than routing on to a node that would happily ack.
func (n *Node) routePut(ctx context.Context, req *putReq) (putResp, error) {
	v := n.routing.Load()
	home := req.Storage
	if !req.Pointer.IsZero() {
		home = req.Access
	}
	level, ok := v.levelOf(home)
	if !ok {
		return putResp{}, fmt.Errorf("netnode: put for %q reached node %q outside it", home, v.self.Name)
	}
	resp, answered, err := putOp.forward(ctx, n, v, req.Key, level, req)
	if err != nil || answered {
		return resp, err
	}
	// The record is applied here — unless it is a pointer to a value this
	// very node holds, which would only point at itself.
	resp = putResp{Owner: v.self, routeHeader: v.answerRoute(&req.routeHeader)}
	if req.Pointer.Addr != v.self.Addr {
		err := n.storeLocalV2(storeRecord{
			Key: req.Key, Value: req.Value, Storage: req.Storage, Access: req.Access,
			Pointer: req.Pointer,
		})
		if err == nil {
			err = n.store.Sync()
		}
		if err != nil {
			resp.Status = statusNotDurable
		}
	}
	return resp, nil
}

// storeBatchBytes caps the encoded records of one store2 batch; a longer
// transfer is split into several batches. The receiver applies a batch and
// fsyncs it before its ack, all within one call attempt (2 s by default)
// and one frame (maxFrameBytes, 16 MiB): 1 MiB keeps a full pass — every
// stored key after a placement change — far inside both.
const storeBatchBytes = 1 << 20

// storeAt sends records to another node as store2 batches of at most
// storeBatchBytes each, in order, and returns how many landed: a batch lands
// whole, once the receiver has applied and synced all of it, and a failed
// batch ends the transfer, so recs[landed:] did not. It is the one
// node-to-node transfer path — the replication round, graceful leave and
// anti-entropy repair all send through it — and its callers have already
// ruled out this node as the target.
func (n *Node) storeAt(ctx context.Context, target Info, recs []storeRecord) (landed int) {
	var scratch []byte
	for landed < len(recs) {
		end, size := landed, binary.MaxVarintLen64 // the entry count
		for ; end < len(recs); end++ {
			c := encoder(scratch[:0])
			recs[end].wire(&c)
			scratch = c.b
			if end > landed && size+len(scratch) > storeBatchBytes {
				break
			}
			size += len(scratch)
		}
		msg, err := transport.NewMessage(msgStoreV2, storeBatch{Entries: recs[landed:end]})
		if err != nil {
			return landed
		}
		resp, err := n.call(ctx, target.Addr, msg)
		if err != nil || resp.Err() != nil {
			return landed
		}
		landed = end
	}
	return landed
}

// storeBatchLocal serves a store2 batch: every record must be homed on a
// ring this node is on — its storage domain for a value, its access domain
// for a pointer record — or none is applied. Then all are applied and one
// durability barrier covers them before the caller acks (fsync-on-ack,
// TestAckedWritesAreSynced).
func (n *Node) storeBatchLocal(recs []storeRecord) error {
	for _, rec := range recs {
		if home := entryHome(entryFromRecord(rec)); !inDomain(n.self.Name, home) {
			return fmt.Errorf("%w: store for %q at %q", ErrBadDomain, home, n.self.Name)
		}
	}
	for _, rec := range recs {
		if err := n.storeLocalV2(rec); err != nil {
			return err
		}
	}
	return n.store.Sync()
}

// storeLocalV2 writes one entry into the node's storage engine. Version 0
// means a fresh write the node stamps itself; any other version is a
// transferred record whose history must be preserved, so the clock only
// observes it. The stored-keys gauge is refreshed on every write path —
// overwrites included, which the pre-engine code missed.
func (n *Node) storeLocalV2(req storeRecord) error {
	n.m.storeWrites.Inc()
	if req.Version == 0 {
		req.Version = n.stampVersion()
	} else {
		n.observeVersion(req.Version)
	}
	e := entryFromRecord(req)
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

// Get retrieves the first value for key that this node may access, searching
// its domains from the most local outward so that locally stored content is
// found without the query leaving the domain. The node is the entry of a
// routed get (handleGet), exactly as if a client had sent it one; when
// Config.TraceSampleRate is set, a sampled fraction of gets record a route
// trace into the node's TraceStore.
func (n *Node) Get(ctx context.Context, key uint64) ([]byte, error) {
	resp, err := n.handleGet(ctx, &getReq{Key: key, routeHeader: n.newRoute(false)})
	if err != nil {
		return nil, err
	}
	return resp.Value, statusErr(resp.Status)
}

// handleGet serves a routed get: the paper's one hierarchical greedy route
// (Section 4.1). Within the origin's level-Level domain the request is
// forwarded toward the key's owner there; the owner — the node with no
// candidate left to forward to — reads its own store for content the origin
// may access, and on a miss lowers the level and keeps routing from where it
// stands, so the owners are visited most local first and the first hit
// answers. Below level 0 the answer is not found. The get plants nothing on
// the nodes it passes: refilling local owners is caching (Section 4.2) and
// needs invalidation first.
func (n *Node) handleGet(ctx context.Context, req *getReq) (getResp, error) {
	v := n.routing.Load()
	entry := req.Hops == 0
	if entry {
		req.Origin, req.Level = v.self.Name, v.levels
	}
	// Only the levels this node shares with the origin name domains both are
	// in; the clamp also keeps a hostile Level inside the prefix chain.
	level := min(req.Level, v.levels)
	for level > 0 && !inDomain(req.Origin, v.prefixes[level]) {
		level--
	}
	resp, err := n.routeGet(ctx, v, req, level)
	if err == nil && entry {
		n.finishEntry(n.m.getHops, &req.routeHeader, &resp.routeHeader, req.Key, prefixAt(req.Origin, resp.Level))
		n.m.getAnswered(resp.Level).Inc()
	}
	return resp, err
}

// routeGet walks the levels of one get from this node on: forward inside the
// level's domain when a candidate is closer to the key, read the local store
// when none is, step one level out on a miss.
func (n *Node) routeGet(ctx context.Context, v *routingView, req *getReq, level int) (getResp, error) {
	searched := false
	for ; level >= 0; level-- {
		req.Level = level
		resp, answered, err := getOp.forward(ctx, n, v, req.Key, level, req)
		if err != nil || answered {
			return resp, err
		}
		// The store holds one answer for every level, so it is read once.
		if searched {
			continue
		}
		searched = true
		if value, ok := n.readLocal(ctx, req.Key, req.Origin); ok {
			return getResp{Status: statusOK, Value: value, Level: level, routeHeader: v.answerRoute(&req.routeHeader)}, nil
		}
	}
	return getResp{Status: statusNotFound, Level: -1, routeHeader: v.answerRoute(&req.routeHeader)}, nil
}

// readLocal returns the first value for key in this node's store that a
// querier named origin may access. A pointer record is resolved with one
// fetch to the storing node; a pointer that cannot be resolved counts into
// the fetch-error metric and the next record is tried.
func (n *Node) readLocal(ctx context.Context, key uint64, origin string) ([]byte, bool) {
	for _, v := range n.fetchLocal(fetchReq{Key: key, Origin: origin}) {
		if v.Pointer.IsZero() {
			return v.Value, true
		}
		resolved, err := n.fetchFrom(ctx, v.Pointer, key, origin)
		if err != nil {
			n.m.fetchErrors.Inc()
			continue
		}
		for _, rv := range resolved {
			if rv.Pointer.IsZero() && rv.Access == v.Access {
				return rv.Value, true
			}
		}
	}
	return nil, false
}

// fetchFrom reads the records for key visible to origin at target — the
// node-to-node read a pointer record is resolved with.
func (n *Node) fetchFrom(ctx context.Context, target Info, key uint64, origin string) ([]fetchValue, error) {
	req := fetchReq{Key: key, Origin: origin}
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

// ownsInView reports whether, by one epoch snapshot of the node's routing
// view, the node is the owner of key within the domain at the given chain
// level: keys in [self.ID, successor.ID) belong to it (footnote 3 of the
// paper). A replication round makes all its placement decisions from a
// single consistent view.
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

// markDirty queues key for the next replication round.
func (n *Node) markDirty(key uint64) {
	n.replMu.Lock()
	n.dirty[key] = struct{}{}
	n.m.replicaDirty.Set(float64(len(n.dirty)))
	n.replMu.Unlock()
}

// mustPropagate reports whether an applied write leaves this node with
// replication work: a fresh (non-replica) write always does; a transferred
// record does only when the node owns it on its home ring — a handoff
// receiver replicates what it inherits, while a chain replica landing on a
// predecessor must not echo back to its owner.
func (n *Node) mustPropagate(req storeRecord, e canonstore.Entry) bool {
	if !req.Replica {
		return true
	}
	v := n.routing.Load()
	level, ok := v.levelOf(entryHome(e))
	return ok && ownsInView(v, e.Key, level)
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

// replicateOnce enforces the placement rule, against one routing-view epoch,
// for every key with pending replication work (see takeDirty):
//
//   - A record whose home-ring ownership moved (a join spliced a new owner
//     into the range, or this is a replica whose owner lives elsewhere) is
//     handed to the current owner, versions intact; the local copy stays
//     behind as an extra replica until eviction policy exists.
//   - A record this node owns is pushed to the ReplicationFactor-1 nearest
//     predecessors on its home ring — under the paper's responsibility rule
//     a dead node's range is inherited by its predecessor, so predecessors
//     are the nodes that must hold the replicas.
//
// The round gathers its records per destination and sends each destination
// one run of store2 batches: partners are walked once per level, a handed-off
// record's owner is found by one lookup. A key leaves the dirty set only when
// every batch carrying it landed: a failed batch, lookup or partner walk, or
// a round that runs out of its context, re-queues it for the next round.
// Called from StabilizeOnce so replicas follow ring repairs.
func (n *Node) replicateOnce(ctx context.Context) {
	v := n.routing.Load()
	keys := n.takeDirty(v)
	if len(keys) == 0 {
		return
	}
	// Each level's partners are walked once, by the first record that needs them.
	type chainWalk struct {
		partners []Info
		err      error
	}
	chains := make([]*chainWalk, v.levels+1)
	var out outbox
	failed := make(map[uint64]bool)
	buf := make([]canonstore.Entry, 0, 4)
	for key := range keys {
		if ctx.Err() != nil {
			n.markDirty(key)
			continue
		}
		for _, e := range n.store.Get(key, buf) {
			level, ok := v.levelOf(entryHome(e))
			if !ok {
				continue // homed on a ring this node is not on: none of its business
			}
			rec := recordFromEntry(e, true)
			if !ownsInView(v, e.Key, level) {
				owner, err := n.Lookup(ctx, e.Key, entryHome(e))
				if err != nil {
					failed[key] = true
				} else if owner.Addr != v.self.Addr {
					out.add(owner, rec, true)
				}
				continue
			}
			if n.cfg.ReplicationFactor < 2 {
				continue
			}
			w := chains[level]
			if w == nil {
				w = &chainWalk{}
				w.err = n.walkReplicaChain(ctx, v, level, func(partner Info) error {
					w.partners = append(w.partners, partner)
					return nil
				})
				chains[level] = w
			}
			if w.err != nil {
				failed[key] = true
				continue
			}
			for _, partner := range w.partners {
				out.add(partner, rec, false)
			}
		}
	}
	chain, handoff, lost := out.send(ctx, n)
	n.m.replicaPushChain.Add(int64(chain))
	n.m.replicaPushHandoff.Add(int64(handoff))
	for _, rec := range lost {
		failed[rec.Key] = true
	}
	for key := range failed {
		n.m.replicaPushFailures.Inc()
		n.markDirty(key)
	}
}

// outbox gathers the records a node transfers, per destination, so that
// each destination is sent one run of store2 batches (storeAt). A
// destination's chain replicas go before its handoffs, which is what lets
// send count the records of each kind that landed.
type outbox struct {
	order   []Info
	parcels map[string]*parcel
}

type parcel struct {
	chain, handoff []storeRecord
}

// add queues one record for a destination.
func (o *outbox) add(to Info, rec storeRecord, handoff bool) {
	p := o.parcels[to.Addr]
	if p == nil {
		if o.parcels == nil {
			o.parcels = make(map[string]*parcel)
		}
		p = &parcel{}
		o.parcels[to.Addr] = p
		o.order = append(o.order, to)
	}
	if handoff {
		p.handoff = append(p.handoff, rec)
	} else {
		p.chain = append(p.chain, rec)
	}
}

// send transfers every destination's records and returns how many chain
// replicas and handoffs landed, and the records that did not.
func (o *outbox) send(ctx context.Context, n *Node) (chain, handoff int, lost []storeRecord) {
	for _, to := range o.order {
		p := o.parcels[to.Addr]
		recs := append(p.chain, p.handoff...)
		landed := n.storeAt(ctx, to, recs)
		chain += min(landed, len(p.chain))
		handoff += max(landed-len(p.chain), 0)
		lost = append(lost, recs[landed:]...)
	}
	return chain, handoff, lost
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
