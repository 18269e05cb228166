package netnode

import (
	"context"
	"fmt"
	"slices"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/transport"
)

// handle dispatches an incoming message to the matching RPC handler.
func (n *Node) handle(ctx context.Context, from string, msg transport.Message) (transport.Message, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return transport.Message{}, ErrClosed
	}
	n.countReceived(msg.Type)
	switch msg.Type {
	case msgPing:
		return transport.NewMessage(msgPing, n.self)

	case msgLookup:
		// A routed request decodes into a pooled object (returned fully
		// zeroed — see reqPool) so a forwarded hop allocates no request. The
		// response is passed by value: NewMessage keeps binary-capable bodies
		// lazy, and receiver-side dedup may cache the message, so the body
		// must not be recycled.
		req := lookupOp.reqs.get()
		defer lookupOp.reqs.put(req)
		if err := msg.Decode(req); err != nil {
			return transport.Message{}, err
		}
		resp, err := n.handleLookup(ctx, req)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgLookup, resp)

	case msgNeighbors:
		var req neighborsReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		n.mu.Lock()
		resp := neighborsResp{}
		if req.Level >= 0 && req.Level <= n.levels {
			resp.Pred = n.preds[req.Level]
			resp.Succs = append([]Info(nil), n.succs[req.Level]...)
		}
		n.mu.Unlock()
		return transport.NewMessage(msgNeighbors, resp)

	case msgNotify:
		var req notifyReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		n.handleNotify(ctx, req)
		return transport.NewMessage(msgNotify, nil)

	case msgStoreV2:
		var req storeBatch
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		// fsync-on-ack: the empty reply promises durability for every record
		// of the batch, so storeBatchLocal's barrier comes first.
		if err := n.storeBatchLocal(req.Entries); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgStoreV2, nil)

	case msgGet:
		req := getOp.reqs.get()
		defer getOp.reqs.put(req)
		if err := msg.Decode(req); err != nil {
			return transport.Message{}, err
		}
		resp, err := n.handleGet(ctx, req)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgGet, resp)

	case msgPut:
		// The reply is a durability promise like store2's empty ack:
		// handlePut returns only after the owner's Sync, here or behind the
		// forwarded reply.
		req := putOp.reqs.get()
		defer putOp.reqs.put(req)
		if err := msg.Decode(req); err != nil {
			return transport.Message{}, err
		}
		resp, err := n.handlePut(ctx, req)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgPut, resp)

	case msgSyncTree:
		var req syncTreeReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgSyncTree, n.syncTreeLocal(req))

	case msgSyncKeys:
		var req syncKeysReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgSyncKeys, n.syncKeysLocal(req))

	case msgSyncPull:
		var req syncPullReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgSyncPull, syncPullResp{Entries: n.syncPullLocal(req)})

	case msgRepair:
		stats := n.AntiEntropyOnce(ctx)
		return transport.NewMessage(msgRepair, repairResp{
			Partners: stats.Partners, Pushed: stats.Pushed, Pulled: stats.Pulled,
		})

	case msgFetch:
		var req fetchReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgFetch, fetchResp{Values: n.fetchLocal(req)})

	case msgRegister:
		var req registerReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		n.registerLocal(req.Prefix, req.From)
		return transport.NewMessage(msgRegister, nil)

	case msgMembers:
		var req membersReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		n.mu.Lock()
		members := append([]Info(nil), n.registry[req.Prefix]...)
		n.mu.Unlock()
		return transport.NewMessage(msgMembers, membersResp{Members: members})

	case msgBucketRef:
		var req bucketRefReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		resp, err := n.handleBucketRef(req)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgBucketRef, resp)

	case msgLookahead:
		var req lookaheadReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		return transport.NewMessage(msgLookahead, n.handleLookahead(req))

	case msgLeaving:
		var req leavingReq
		if err := msg.Decode(&req); err != nil {
			return transport.Message{}, err
		}
		n.handleLeaving(ctx, req)
		return transport.NewMessage(msgLeaving, nil)

	default:
		return transport.Message{}, fmt.Errorf("netnode: unknown message type %q", msg.Type)
	}
}

// handleNotify applies a notify (applyNotify) and then, with the node lock
// released, sends what it calls for: the registry entries the sender takes
// over, and the notify passed on to our predecessor. Each hop of that chain
// ranks the sender one place further back, so it stops by itself at the
// first node whose successor list the sender no longer fits — after at most
// SuccessorListLen hops — and a join leaves every list that should name the
// joiner naming it (Section 2.3).
func (n *Node) handleNotify(ctx context.Context, req notifyReq) {
	fwd, handoff := n.applyNotify(req)
	for _, r := range handoff {
		if err := n.tell(ctx, req.From.Addr, msgRegister, r); err != nil {
			n.m.registerFailures.Inc()
		}
	}
	if !fwd.IsZero() {
		n.notify(ctx, fwd.Addr, req)
	}
}

// applyNotify adopts the sender as predecessor at the given level when it
// lies between the current predecessor and us. With AsSuccessor set it
// inserts the sender at its clockwise rank in that level's successor list,
// unless the sender is listed already or ranks past the list's end. An
// insertion returns the predecessor to pass the notify on to, and an
// insertion at the level-0 head the registry entries whose domain keys the
// sender now owns.
func (n *Node) applyNotify(req notifyReq) (fwd Info, handoff []registerReq) {
	level := req.Level
	n.mu.Lock()
	defer n.mu.Unlock()
	if level < 0 || level > n.levels || req.From.Addr == n.self.Addr ||
		!inDomain(req.From.Name, prefixAt(n.self.Name, level)) {
		return Info{}, nil
	}
	if !req.AsSuccessor {
		cur := n.preds[level]
		if cur.IsZero() || cur.Addr == n.self.Addr ||
			n.space.Between(id.ID(req.From.ID), id.ID(cur.ID), id.ID(n.self.ID)) && req.From.ID != n.self.ID {
			n.preds[level] = req.From
			n.publishRoutingLocked()
		}
		return Info{}, nil
	}
	list := n.succs[level]
	rank := 0
	for _, s := range list {
		if s.Addr == req.From.Addr {
			return Info{}, nil
		}
		if n.clockwise(n.self.ID, s.ID) < n.clockwise(n.self.ID, req.From.ID) {
			rank++
		}
	}
	if rank >= n.cfg.SuccessorListLen {
		return Info{}, nil
	}
	if level == 0 && rank == 0 {
		head := n.self
		if len(list) > 0 {
			head = list[0]
		}
		handoff = n.registryBetweenLocked(req.From.ID, head.ID)
	}
	n.succs[level] = capList(slices.Insert(slices.Clone(list), rank, req.From), n.cfg.SuccessorListLen)
	n.publishRoutingLocked()
	if p := n.preds[level]; !p.IsZero() && p.Addr != n.self.Addr && p.Addr != req.From.Addr {
		fwd = p
	}
	return fwd, handoff
}

// registryBetweenLocked lists, as register requests, every registry entry
// whose domain key lies in the clockwise range [lo, hi) — the keys a node
// splicing in at lo takes over from this one. The caller holds n.mu.
func (n *Node) registryBetweenLocked(lo, hi uint64) []registerReq {
	var out []registerReq
	for prefix, members := range n.registry {
		k := domainKey(n.space, prefix)
		if n.clockwise(lo, k) >= n.clockwise(lo, hi) {
			continue
		}
		for _, m := range members {
			out = append(out, registerReq{Prefix: prefix, From: m})
		}
	}
	return out
}

// handleLeaving splices a departing node out of all local state (applyLeaving)
// and then, with the node lock released, passes the notice on to the
// predecessor of every level whose successor list named the leaver. That is
// the notify chain run in reverse: it stops by itself at the first node
// whose lists did not name the leaver, and a graceful leave leaves no list
// naming it — which lookups answered from a successor list rely on.
func (n *Node) handleLeaving(ctx context.Context, req leavingReq) {
	for _, p := range n.applyLeaving(req) {
		if err := n.tell(ctx, p.Addr, msgLeaving, req); err != nil {
			n.m.leaveNotifyFailures.Inc()
		}
	}
}

// applyLeaving removes the leaver from every list, predecessor, finger and
// registry entry, inserts its successors (the hints) into each level's list
// at their clockwise rank, and returns the distinct predecessors to pass the
// notice on to: those of the levels whose list named the leaver.
func (n *Node) applyLeaving(req leavingReq) (fwd []Info) {
	n.mu.Lock()
	defer n.mu.Unlock()
	gone := req.From.Addr
	for l := 0; l <= n.levels; l++ {
		listed := false
		kept := make([]Info, 0, len(n.succs[l])+len(req.Succs))
		for _, s := range n.succs[l] {
			if s.Addr == gone {
				listed = true
			} else {
				kept = append(kept, s)
			}
		}
		// Use the leaver's successors as repair hints for this level.
		for _, h := range req.Succs {
			if h.Addr != gone && h.Addr != n.self.Addr && inDomain(h.Name, prefixAt(n.self.Name, l)) {
				kept = append(kept, h)
			}
		}
		kept = dedupeInfos(kept)
		n.sortClockwise(kept)
		n.succs[l] = capList(kept, n.cfg.SuccessorListLen)
		if n.preds[l].Addr == gone {
			n.preds[l] = Info{}
		}
		if p := n.preds[l]; listed && !p.IsZero() && p.Addr != n.self.Addr &&
			!slices.ContainsFunc(fwd, func(f Info) bool { return f.Addr == p.Addr }) {
			fwd = append(fwd, p)
		}
	}
	for fid, f := range n.fingers {
		if f.Addr == gone {
			delete(n.fingers, fid)
		}
	}
	for prefix, members := range n.registry {
		kept := members[:0]
		for _, m := range members {
			if m.Addr != gone {
				kept = append(kept, m)
			}
		}
		n.registry[prefix] = kept
	}
	n.publishRoutingLocked()
	return fwd
}
