// Merkle anti-entropy between replicas (docs/STORAGE.md): replicateOnce
// pushes copies forward, but pushes are lossy — a replica that was down,
// a dropped RPC, a compaction race — so replicas additionally compare
// summaries and repair the difference. A node compares, for each ring of its
// chain (each can be some record's home), the records homed on exactly that
// ring which it owns there with the predecessors the placement rule
// (storage.go) says hold their replicas. The protocol per (ring, partner):
//
//	tree exchange:  send (prefix, lo, hi); compare Merkle roots. Equal
//	                roots end the sync — the steady-state cost is one
//	                round trip carrying ~2KB of leaves.
//	diff:           diverging leaf buckets resolve to per-record
//	                (version, digest) pairs via synckeys.
//	repair:         records where the local side wins are pushed
//	                (store2, versions intact); records where the peer
//	                wins are pulled (syncpull) and applied through the
//	                same versioned LWW gate every write takes.
//
// Both sides compute the sync scope by the same pure rule (inScope),
// so their summaries are comparable without shared state. Convergence
// follows from the total write order (Version, then Digest — see
// canonstore.putEntry): each repaired record moves monotonically up that
// order on both sides, and equal records digest equally and drop out.
package netnode

import (
	"context"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/transport"
)

// AntiEntropyStats reports one anti-entropy round.
type AntiEntropyStats struct {
	// Partners is how many (ring, replica) pairs were compared.
	Partners int `json:"partners"`
	// Pushed and Pulled count records repaired in each direction.
	Pushed int `json:"pushed"`
	Pulled int `json:"pulled"`
}

// AntiEntropyOnce runs one full anti-entropy round against the node's
// replica partners: on every ring of its chain, the ReplicationFactor-1
// nearest predecessors, which hold the replicas of the records homed on
// that ring whose keys this node owns there.
// It reads placement from one routing-view epoch, takes no node lock, and
// is a no-op when replication is disabled. Called from the maintenance
// loop on the Config.SyncInterval cadence, by the repair RPC, and directly
// by tests.
func (n *Node) AntiEntropyOnce(ctx context.Context) AntiEntropyStats {
	var stats AntiEntropyStats
	if n.cfg.ReplicationFactor < 2 {
		return stats
	}
	v := n.routing.Load()
	for l := 0; l <= v.levels; l++ {
		lo, hi := v.self.ID, v.succAt(l).ID
		// A failed sync ends this level's walk; the next round retries it.
		err := n.walkReplicaChain(ctx, v, l, func(partner Info) error {
			pushed, pulled, err := n.syncWith(ctx, partner, v.prefixes[l], lo, hi)
			if err != nil {
				return err
			}
			stats.Partners++
			stats.Pushed += pushed
			stats.Pulled += pulled
			return nil
		})
		if err != nil {
			n.m.antiEntropySyncFailures.Inc()
		}
	}
	n.m.antiEntropyRounds.Inc()
	return stats
}

// inRange reports whether key lies in the clockwise range [lo, hi);
// lo == hi means the whole ring (a node alone in its domain owns it all).
func inRange(space id.Space, lo, hi, key uint64) bool {
	if lo == hi {
		return true
	}
	return space.Clockwise(id.ID(lo), id.ID(key)) < space.Clockwise(id.ID(lo), id.ID(hi))
}

// inScope reports whether an entry belongs to one sync scope: its home ring
// is the one named prefix and its key lies in [lo, hi) — with lo the owner
// and hi its successor there, exactly the records replicateOnce pushes to
// the partners the scope is compared with. The rule depends only on the
// entry and the scope, never on which replica evaluates it — that is what
// makes two replicas' summaries comparable.
func (n *Node) inScope(e canonstore.Entry, prefix string, lo, hi uint64) bool {
	return entryHome(e) == prefix && inRange(n.space, lo, hi, e.Key)
}

// replicaScope returns the local entries inside one sync scope.
func (n *Node) replicaScope(prefix string, lo, hi uint64) []canonstore.Entry {
	var out []canonstore.Entry
	n.store.ForEach(func(e canonstore.Entry) bool {
		if n.inScope(e, prefix, lo, hi) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// scopeTree summarizes a sync scope as a sealed Merkle tree.
func scopeTree(entries []canonstore.Entry) *canonstore.MerkleTree {
	t := canonstore.NewMerkleTree()
	for _, e := range entries {
		t.Add(e)
	}
	t.Seal()
	return t
}

// entryIdent is a record identity used to join local and peer item lists.
type entryIdent struct {
	key             uint64
	storage, access string
	pointer         bool
}

func identOfEntry(e canonstore.Entry) entryIdent {
	return entryIdent{e.Key, e.Storage, e.Access, e.IsPointer()}
}

func identOfItem(it syncItem) entryIdent {
	return entryIdent{it.Key, it.Storage, it.Access, it.Pointer}
}

// wins reports whether the (version, digest) pair a beats b in the total
// write order the storage engine applies.
func wins(aVersion, aDigest, bVersion, bDigest uint64) bool {
	return aVersion > bVersion || (aVersion == bVersion && aDigest > bDigest)
}

// syncWith runs the three-phase sync against one partner for one scope and
// returns how many records it pushed and pulled.
func (n *Node) syncWith(ctx context.Context, peer Info, prefix string, lo, hi uint64) (pushed, pulled int, err error) {
	local := n.replicaScope(prefix, lo, hi)
	tree := scopeTree(local)

	// Phase 1: tree exchange. Equal roots mean equal scopes — done.
	msg, err := transport.NewMessage(msgSyncTree, syncTreeReq{Prefix: prefix, Lo: lo, Hi: hi})
	if err != nil {
		return 0, 0, err
	}
	raw, err := n.call(ctx, peer.Addr, msg)
	if err != nil {
		return 0, 0, err
	}
	var treeResp syncTreeResp
	if err := raw.Decode(&treeResp); err != nil {
		return 0, 0, err
	}
	if treeResp.Root == tree.Root {
		return 0, 0, nil
	}
	n.m.antiEntropySyncs.Inc()
	buckets := tree.DiffBuckets(treeResp.Leaves)

	// Phase 2: per-record diff of the divergent buckets.
	msg, err = transport.NewMessage(msgSyncKeys, syncKeysReq{Prefix: prefix, Lo: lo, Hi: hi, Buckets: buckets})
	if err != nil {
		return 0, 0, err
	}
	raw, err = n.call(ctx, peer.Addr, msg)
	if err != nil {
		return 0, 0, err
	}
	var keysResp syncKeysResp
	if err := raw.Decode(&keysResp); err != nil {
		return 0, 0, err
	}
	peerIdx := make(map[entryIdent]syncItem, len(keysResp.Items))
	for _, it := range keysResp.Items {
		peerIdx[identOfItem(it)] = it
	}
	inBuckets := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		inBuckets[b] = true
	}
	localIdx := make(map[entryIdent]canonstore.Entry)
	for _, e := range local {
		if inBuckets[canonstore.MerkleBucket(e.Key)] {
			localIdx[identOfEntry(e)] = e
		}
	}

	// Phase 3a: push records the local side wins (or the peer lacks), in
	// one run of store2 batches.
	var push []storeRecord
	for ident, e := range localIdx {
		pi, known := peerIdx[ident]
		if known && !wins(e.Version, e.Digest(), pi.Version, pi.Digest) {
			continue
		}
		push = append(push, recordFromEntry(e, true))
	}
	pushed = n.storeAt(ctx, peer, push)
	n.m.antiEntropyPushed.Add(int64(pushed))

	// Phase 3b: pull records the peer wins (or we lack), full entries,
	// applied through the normal versioned write path.
	pullKeys := make(map[uint64]bool)
	for ident, it := range peerIdx {
		le, known := localIdx[ident]
		if known && !wins(it.Version, it.Digest, le.Version, le.Digest()) {
			continue
		}
		pullKeys[ident.key] = true
	}
	for key := range pullKeys {
		entries, err := n.syncPullFrom(ctx, peer, syncPullReq{Prefix: prefix, Lo: lo, Hi: hi, Key: key})
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.Version == 0 {
				continue // never let a malformed reply restamp
			}
			if err := n.storeLocalV2(e); err == nil {
				pulled++
			}
		}
	}
	n.m.antiEntropyPulled.Add(int64(pulled))
	if pulled > 0 {
		// Repairs are acked writes by proxy: make them durable now rather
		// than at the next store RPC (TestAckedWritesAreSynced). A failed
		// barrier must surface — the entries were counted as repaired
		// (TestSyncWithSurfacesBarrierError).
		if err := n.store.Sync(); err != nil {
			return pushed, pulled, err
		}
	}
	return pushed, pulled, nil
}

// syncPullFrom fetches the versioned entries a peer holds for one key of a
// sync scope. A local target short-circuits to the store.
func (n *Node) syncPullFrom(ctx context.Context, peer Info, req syncPullReq) ([]storeRecord, error) {
	if peer.Addr == n.self.Addr {
		return n.syncPullLocal(req), nil
	}
	msg, err := transport.NewMessage(msgSyncPull, req)
	if err != nil {
		return nil, err
	}
	raw, err := n.call(ctx, peer.Addr, msg)
	if err != nil {
		return nil, err
	}
	var resp syncPullResp
	if err := raw.Decode(&resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// syncPullLocal serves the pull half of a sync: the scoped entries under
// one key, versions intact.
func (n *Node) syncPullLocal(req syncPullReq) []storeRecord {
	var out []storeRecord
	for _, e := range n.store.Get(req.Key, nil) {
		if n.inScope(e, req.Prefix, req.Lo, req.Hi) {
			out = append(out, recordFromEntry(e, true))
		}
	}
	return out
}

// syncTreeLocal serves the summary half of a sync.
func (n *Node) syncTreeLocal(req syncTreeReq) syncTreeResp {
	t := scopeTree(n.replicaScope(req.Prefix, req.Lo, req.Hi))
	return syncTreeResp{Root: t.Root, Leaves: t.Leaves}
}

// syncKeysLocal serves the per-record diff half of a sync.
func (n *Node) syncKeysLocal(req syncKeysReq) syncKeysResp {
	inBuckets := make(map[int]bool, len(req.Buckets))
	for _, b := range req.Buckets {
		inBuckets[b] = true
	}
	var items []syncItem
	for _, e := range n.replicaScope(req.Prefix, req.Lo, req.Hi) {
		if !inBuckets[canonstore.MerkleBucket(e.Key)] {
			continue
		}
		items = append(items, syncItem{
			Key: e.Key, Storage: e.Storage, Access: e.Access,
			Pointer: e.IsPointer(), Version: e.Version, Digest: e.Digest(),
		})
	}
	return syncKeysResp{Items: items}
}
