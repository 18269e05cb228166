package netnode

import (
	"context"
	"fmt"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// succInDomain returns the node's successor within the domain named prefix,
// which must be one of the node's own domains.
func (n *Node) succInDomain(prefix string) Info {
	level := len(components(prefix))
	n.mu.Lock()
	defer n.mu.Unlock()
	if level > n.levels || prefixAt(n.self.Name, level) != prefix {
		return Info{}
	}
	if len(n.succs[level]) == 0 {
		return n.self
	}
	return n.succs[level][0]
}

// hopPlan is one hop's forwarding decision: the next-hop candidates for a
// key, in the order the hop should try them.
type hopPlan struct {
	order [forwardAttemptLimit]viewCandidate
	cnt   int
	// best is the address of the distance-best candidate, whatever its
	// health: a hop to anyone else is a route-around.
	best string
}

// candidates returns the plan's candidates in trial order.
func (p *hopPlan) candidates() []viewCandidate { return p.order[:p.cnt] }

// planHop is the forwarding decision every routed message — lookup, get,
// put — shares: where a request for key goes next inside the level-l domain
// of this node's chain. It enforces the hop limit and reads, from the one
// routing snapshot the caller loaded, the candidates that advance without
// overshooting, health-preferred first and distance-best within each class,
// at most forwardAttemptLimit of them. The caller tries them in order: a
// dead best candidate falls through to the next (the crash-recovery
// behaviour of a real deployment — stabilization prunes it later), and
// distrusted peers sink behind every healthy one but remain last-resort
// options, so a wrongly accused peer cannot partition the route.
//
// An empty plan means this node is the key's closest predecessor in the
// domain — its owner. A caller whose every candidate proved unreachable
// answers from where it stands too, the liveness-over-accuracy choice real
// deployments make while stabilization repairs the stale links.
//
// The decision is lock-free and allocation-free: it reads the snapshot's
// precomputed candidate sets and the failure detector's atomics, and the
// plan lives on the caller's stack.
func (n *Node) planHop(v *routingView, key uint64, level, hops int) (hopPlan, error) {
	var p hopPlan
	if hops >= routeHopLimit {
		return p, fmt.Errorf("netnode: route exceeded %d hops", routeHopLimit)
	}
	var routedAround bool
	p.cnt, p.best, routedAround = v.forwardSet(n.health, key, level, p.order[:])
	if routedAround {
		n.m.routedAround.Inc()
	}
	return p, nil
}

// routed is what the forwarder needs of a routed request body: its route
// header, which every body embeds.
type routed interface{ header() *routeHeader }

// routedOp is one routed message type — lookup, get or put — as the
// forwarder carries it: the wire type, and the pool its requests are
// decoded into and forwarded from. Q is the request body, R the response.
type routedOp[Q, R any, PQ interface {
	*Q
	routed
}] struct {
	msg  string
	reqs reqPool[Q, PQ]
}

var (
	lookupOp = &routedOp[lookupReq, lookupResp, *lookupReq]{msg: msgLookup}
	getOp    = &routedOp[getReq, getResp, *getReq]{msg: msgGet}
	putOp    = &routedOp[putReq, putResp, *putReq]{msg: msgPut}
)

// forward sends a get or a put on toward key: it plans the hop inside the
// level-l domain of this node's chain (planHop) and sends the request along
// the plan (forwardOn). Lookups plan for themselves, since they may answer
// without a hop (listAnswer).
func (op *routedOp[Q, R, PQ]) forward(ctx context.Context, n *Node, v *routingView, key uint64, level int, req PQ) (resp R, answered bool, err error) {
	plan, err := n.planHop(v, key, level, req.header().Hops)
	if err != nil {
		return resp, false, err
	}
	return op.forwardOn(ctx, n, v, &plan, req)
}

// forwardOn tries the candidates of plan in order, each with a copy of req
// one hop further along — on a traced route carrying this node's span for
// the hop. A candidate has answered when its reply decodes into the op's
// response body; an unreachable candidate or an error reply sends the route
// on to the next. answered is false when this node is where the route ends:
// it owns the key in the domain (an empty plan), or no candidate answered
// (the liveness-over-accuracy choice, see planHop). Only the op's terminal
// action — answer as owner, read the store, apply the write — is left to the
// caller.
//
// The untraced path allocates no request object: the forwarded copy comes
// from the op's pool. A traced hop's span list is pool-recycled too.
func (op *routedOp[Q, R, PQ]) forwardOn(ctx context.Context, n *Node, v *routingView, plan *hopPlan, req PQ) (resp R, answered bool, err error) {
	if plan.cnt == 0 {
		return resp, false, nil
	}
	at := req.header()
	fwd := op.reqs.get()
	defer op.reqs.put(fwd)
	*fwd = *req
	h := fwd.header()
	*h = routeHeader{Hops: at.Hops + 1, Trace: at.Trace}
	for _, cand := range plan.candidates() {
		if at.Trace != "" {
			if h.Spans == nil {
				h.Spans = telemetry.GetSpans()
			}
			h.Spans = v.hopSpans(h.Spans, at, cand.level, cand.info.Addr != plan.best)
		}
		msg, err := transport.NewMessage(op.msg, fwd)
		if err != nil {
			return resp, false, err
		}
		raw, err := n.call(ctx, cand.info.Addr, msg)
		if err != nil {
			continue
		}
		answer := new(R)
		if err := raw.Decode(answer); err != nil {
			continue
		}
		return *answer, true, nil
	}
	return resp, false, nil
}

// listAnswer reports whether this node may answer a lookup for the owner
// instead of forwarding to it, and with which owner and ring successor. It
// may when plan's first candidate c passes three tests:
//
//  1. c is the distance-best candidate, not a route-around: the answered
//     route is then a prefix of the full greedy route, so Section 3.2
//     locality and proxy convergence hold as they do for the full route;
//  2. the level's successor list names c's ring successor next and next
//     overshoots the key (bracket), so c is the key's closest predecessor
//     in the domain;
//  3. c, and next unless it is this node, answered this node's last call to
//     them — a peer known only from a hint or a notify does not qualify.
//
// Gets and puts never stop early: they need the owner's store. The lists are
// exact after a join (notifies are passed back) and after a graceful leave
// (leaving notices are too); after a crash an answer can name the dead owner
// until this node's next call to it fails, at most one maintenance round,
// since stabilization pings every list entry.
func (n *Node) listAnswer(v *routingView, plan *hopPlan, key uint64, level int) (owner, next Info, ok bool) {
	if plan.cnt == 0 || plan.order[0].info.Addr != plan.best {
		return Info{}, Info{}, false
	}
	c := plan.order[0].info
	next, ok = v.bracket(key, level, c)
	if !ok || !n.health.answered(c.Addr) || next.Addr != v.self.Addr && !n.health.answered(next.Addr) {
		return Info{}, Info{}, false
	}
	return c, next, true
}

// hopSpans returns the spans of a traced route as it leaves this node, in
// buf's backing array: the spans carried in, then this node's span for hop
// at.Hops. A forward's span records its routing level — the depth of the
// lowest common domain with the next node, so leaf-deep hops stay local and
// level-0 hops cross top-level boundaries (Section 3.2) — and whether the
// distance-best candidate was skipped; the answering node's span — the
// owner's, or that of the node answering for it (listAnswer) — is the
// terminal Owner span, at level -1.
func (v *routingView) hopSpans(buf []telemetry.Span, at *routeHeader, level int, routeAround bool) []telemetry.Span {
	return append(append(buf[:0], at.Spans...), telemetry.Span{
		Hop: at.Hops, Name: v.self.Name, ID: v.self.ID, Addr: v.self.Addr,
		Level: level, RouteAround: routeAround, Owner: level < 0,
	})
}

// answerRoute is the route header of an answer given at this node. Its spans
// are freshly allocated, never pooled: they are retained past the reply
// (archived in the TraceStore, cached by receiver-side dedup) and must not
// be recycled under a reader.
func (v *routingView) answerRoute(at *routeHeader) routeHeader {
	h := routeHeader{Hops: at.Hops, Trace: at.Trace}
	if at.Trace != "" {
		h.Spans = v.hopSpans(nil, at, -1, false)
	}
	return h
}

// finishEntry is the entry-hop bookkeeping of every routed operation, run by
// the node the route entered at (Hops 0) once the answer is in: the op's hop
// histogram observes the route's length, and a traced route is archived in
// the node's TraceStore — so self-originated and client-originated
// operations alike leave their evidence where the route began.
func (n *Node) finishEntry(hops *telemetry.Histogram, req, resp *routeHeader, key uint64, prefix string) {
	hops.Observe(float64(resp.Hops))
	if req.Trace != "" && len(resp.Spans) > 0 {
		n.traces.Record(telemetry.Trace{ID: req.Trace, Key: key, Prefix: prefix, Spans: resp.Spans})
		n.m.traceDone.Inc()
	}
}

// newRoute is the route header of an operation this node originates: traced
// when forced, or when Config.TraceSampleRate samples it.
func (n *Node) newRoute(traced bool) routeHeader {
	rate := n.cfg.TraceSampleRate
	if !traced && rate <= 0 {
		return routeHeader{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !traced && rate < 1 && n.rng.Float64() >= rate {
		return routeHeader{}
	}
	n.m.traceStarted.Inc()
	return routeHeader{Trace: telemetry.NewTraceID(n.rng)}
}

// handleLookup serves a routed lookup: greedy clockwise forwarding
// constrained to a domain. The receiving node answers with itself as the
// owner when it is the key's closest predecessor within the domain, answers
// for the owner when its successor list brackets the key at the hop it would
// take (listAnswer), and forwards toward the key otherwise. The node loads
// its published routing snapshot once (one complete epoch — never a torn mix
// of two stabilization rounds) and plans the hop from it once.
func (n *Node) handleLookup(ctx context.Context, req *lookupReq) (lookupResp, error) {
	v := n.routing.Load()
	level, ok := v.levelOf(req.Prefix)
	if !ok {
		return lookupResp{}, fmt.Errorf("netnode: lookup for %q reached node outside it", req.Prefix)
	}
	plan, err := n.planHop(v, req.Key, level, req.Hops)
	if err != nil {
		return lookupResp{}, err
	}
	var resp lookupResp
	if owner, next, ok := n.listAnswer(v, &plan, req.Key, level); ok {
		n.m.listAnswers.Inc()
		resp = lookupResp{Pred: owner, Succ: next, routeHeader: v.answerRoute(&req.routeHeader)}
	} else {
		var answered bool
		if resp, answered, err = lookupOp.forwardOn(ctx, n, v, &plan, req); err != nil {
			return lookupResp{}, err
		}
		if !answered {
			resp = lookupResp{Pred: v.self, Succ: v.succAt(level), routeHeader: v.answerRoute(&req.routeHeader)}
		}
	}
	if req.Hops == 0 {
		n.finishEntry(n.m.lookupHops, &req.routeHeader, &resp.routeHeader, req.Key, req.Prefix)
	}
	return resp, nil
}

// lookupReqFrom runs a lookup entering at seed (possibly self).
func (n *Node) lookupReqFrom(ctx context.Context, seed Info, req lookupReq) (lookupResp, error) {
	if seed.Addr == n.self.Addr {
		return n.handleLookup(ctx, &req)
	}
	msg, err := transport.NewMessage(msgLookup, &req)
	if err != nil {
		return lookupResp{}, err
	}
	raw, err := n.call(ctx, seed.Addr, msg)
	if err != nil {
		return lookupResp{}, err
	}
	var resp lookupResp
	if err := raw.Decode(&resp); err != nil {
		return lookupResp{}, err
	}
	return resp, nil
}

// lookup enters a lookup at this node, for Lookup, LookupHops and
// TracedLookup.
func (n *Node) lookup(ctx context.Context, key uint64, prefix string, traced bool) (lookupResp, error) {
	if !inDomain(n.self.Name, prefix) {
		return lookupResp{}, fmt.Errorf("%w: %q does not contain this node", ErrBadDomain, prefix)
	}
	return n.handleLookup(ctx, &lookupReq{Key: key, Prefix: prefix, routeHeader: n.newRoute(traced)})
}

// Lookup returns the node responsible for key within the domain named by
// prefix (the key's closest predecessor there). The node must itself belong
// to the domain. When Config.TraceSampleRate is set, a sampled fraction of
// calls additionally record a route trace into the node's TraceStore.
func (n *Node) Lookup(ctx context.Context, key uint64, prefix string) (Info, error) {
	resp, err := n.lookup(ctx, key, prefix, false)
	return resp.Pred, err
}

// LookupHops is Lookup plus the number of forwarding hops used, for
// measurements.
func (n *Node) LookupHops(ctx context.Context, key uint64, prefix string) (Info, int, error) {
	resp, err := n.lookup(ctx, key, prefix, false)
	return resp.Pred, resp.Hops, err
}

// TracedLookup runs a lookup with distributed route tracing always on: every
// hop appends a span (node, domain, routing level, route-around flag) and
// the completed trace — archived in the node's TraceStore under its ID — is
// returned alongside the owner. This is the live counterpart of the paper's
// path analyses: intra-domain locality and proxy convergence (Section 3.2)
// become assertions over the returned spans.
func (n *Node) TracedLookup(ctx context.Context, key uint64, prefix string) (Info, telemetry.Trace, error) {
	resp, err := n.lookup(ctx, key, prefix, true)
	if err != nil {
		return Info{}, telemetry.Trace{}, err
	}
	return resp.Pred, telemetry.Trace{ID: resp.Trace, Key: key, Prefix: prefix, Spans: resp.Spans}, nil
}

// StabilizeOnce runs one round of the per-level stabilization protocol:
// refresh successor lists, adopt closer successors learned from them, prune
// dead predecessors, and notify successors of our presence. It also
// re-registers the node in its domains' membership registries (whose owners
// drift as the key space repartitions) and uses the registry to escape
// level-isolation when the node wrongly believes it is alone in a domain
// (TestStabilizeRegistryEscapeJoinsSplitDomain).
// A round whose ctx ends stops there and keeps every list and predecessor
// it has not yet rewritten (see overran).
func (n *Node) StabilizeOnce(ctx context.Context) {
	for l := 0; l <= n.levels; l++ {
		if !n.stabilizeLevel(ctx, l) {
			return
		}
	}
	n.registerSelf(ctx)
	n.replicateOnce(ctx)
	n.geom.maintain(ctx, n)
	n.m.suspects.Set(float64(len(n.health.snapshot())))
	for l := 1; l <= n.levels; l++ {
		n.mu.Lock()
		alone := len(n.succs[l]) == 0 &&
			(n.preds[l].IsZero() || n.preds[l].Addr == n.self.Addr)
		n.mu.Unlock()
		if !alone {
			continue
		}
		prefix := prefixAt(n.self.Name, l)
		member, err := n.findMember(ctx, n.self, prefix)
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.succs[l] = []Info{member}
		n.publishRoutingLocked()
		n.mu.Unlock()
	}
}

// overran reports, and counts, that a maintenance job's own ctx has ended.
// A probe that failed for that reason says nothing about the peer, so the
// job keeps the state it started with instead of writing back what its
// failed probes suggest — an empty successor list, no predecessor.
func (n *Node) overran(ctx context.Context) bool {
	if ctx.Err() == nil {
		return false
	}
	n.m.maintenanceOverruns.Inc()
	return true
}

// stabilizeLevel runs one level of StabilizeOnce and reports whether it
// finished; false means ctx ended and the level's state was left as it was.
func (n *Node) stabilizeLevel(ctx context.Context, level int) bool {
	n.mu.Lock()
	prefix := prefixAt(n.self.Name, level)
	list := append([]Info(nil), n.succs[level]...)
	// Every known contact inside this level's domain is a successor
	// candidate for this level's ring, wherever we learned it: deeper-level
	// successors (nested domains are subsets), shallower-level successors
	// that happen to share the prefix, and in-domain fingers. Folding them
	// all in and keeping clockwise order matters twice over. A ring whose
	// list went stale snaps back to the true successor in one round — and a
	// correct successor is what the Canon link bound (FixFingers,
	// geomAdmissible) measures against. More fundamentally, a ring that
	// partitioned into disjoint consistent cycles after a join burst is a
	// stable fixpoint of pure successor/predecessor stabilization; only
	// cross-level evidence like this merges the cycles back together
	// (TestStabilizeFoldMergesSplitRing).
	for l := 0; l <= n.levels; l++ {
		if l == level {
			continue
		}
		for _, s := range n.succs[l] {
			if inDomain(s.Name, prefix) {
				list = append(list, s)
			}
		}
	}
	for _, f := range n.fingers {
		if inDomain(f.Name, prefix) {
			list = append(list, f)
		}
	}
	pred := n.preds[level]
	n.mu.Unlock()
	deduped := dedupeInfos(list)
	kept := deduped[:0]
	for _, s := range deduped {
		if s.Addr != n.self.Addr {
			kept = append(kept, s)
		}
	}
	list = kept
	n.sortClockwise(list)

	// Find the first live successor; stop probing once a full successor
	// list's worth of live candidates is in hand.
	var succ Info
	alive := make([]Info, 0, len(list))
	for _, s := range list {
		if len(alive) >= n.cfg.SuccessorListLen && n.cfg.SuccessorListLen > 0 {
			break
		}
		if _, err := n.pingAddr(ctx, s.Addr); err == nil {
			alive = append(alive, s)
		}
	}
	if n.overran(ctx) {
		return false
	}
	if len(alive) == 0 {
		alive = []Info{n.self}
	}
	succ = alive[0]

	if succ.Addr != n.self.Addr {
		// Ask the successor for its predecessor and successor list at this
		// level (nodes sharing a domain share its level number); adopt its
		// predecessor when it sits between us — and keep walking the
		// predecessor chain to a fixpoint rather than one step per round.
		// After a batch of joins a ring can be off by many nodes, and a
		// single-step walk leaves the successor (and with it the Canon link
		// bound that FixFingers and geomAdmissible measure against) wrong
		// for O(ring size) rounds; the full walk repairs it in one.
		for walk := 0; walk < stabilizeWalkLimit; walk++ {
			req, err := transport.NewMessage(msgNeighbors, neighborsReq{Level: level})
			if err != nil {
				break
			}
			nbRaw, err := n.call(ctx, succ.Addr, req)
			if err != nil {
				break
			}
			var nb neighborsResp
			if derr := nbRaw.Decode(&nb); derr != nil {
				break
			}
			p := nb.Pred
			closer := !p.IsZero() && p.Addr != n.self.Addr && p.Addr != succ.Addr &&
				inDomain(p.Name, prefixAt(n.self.Name, level)) &&
				n.space.Between(id.ID(p.ID), id.ID(n.self.ID), id.ID(succ.ID)) && p.ID != succ.ID
			if closer {
				if _, err := n.pingAddr(ctx, p.Addr); err == nil {
					// Keep the old successor as the next list entry while we
					// interrogate the closer one.
					nb.Succs = append([]Info{succ}, nb.Succs...)
					alive = mergeSuccList(n.self, succ, nb.Succs, n.cfg.SuccessorListLen)
					succ = p
					continue
				}
			}
			alive = mergeSuccList(n.self, succ, nb.Succs, n.cfg.SuccessorListLen)
			break
		}
		// Notify the successor that we may be its predecessor.
		n.notify(ctx, succ.Addr, notifyReq{Level: level, From: n.self})
	} else {
		// Alone at this level unless a notify told us otherwise.
		if !pred.IsZero() && pred.Addr != n.self.Addr {
			if _, err := n.pingAddr(ctx, pred.Addr); err == nil {
				succ = pred
				alive = []Info{pred}
			}
		}
	}

	if n.overran(ctx) {
		return false
	}
	n.mu.Lock()
	switch {
	case succ.Addr == n.self.Addr:
		alive = nil // alone: a successor list never names its own node
	case alive[0].Addr != succ.Addr:
		alive = append([]Info{succ}, alive...)
	}
	n.succs[level] = capList(dedupeInfos(alive), n.cfg.SuccessorListLen)
	// Drop a dead predecessor so notify can replace it.
	p := n.preds[level]
	n.publishRoutingLocked()
	n.mu.Unlock()
	if !p.IsZero() && p.Addr != n.self.Addr {
		if _, err := n.pingAddr(ctx, p.Addr); err != nil {
			if n.overran(ctx) {
				return false
			}
			n.mu.Lock()
			if n.preds[level].Addr == p.Addr {
				n.preds[level] = Info{}
				n.publishRoutingLocked()
			}
			n.mu.Unlock()
		}
	}
	return true
}

// mergeSuccList builds [succ] + the successor's own list up to ourselves:
// entries past us there wrap around to nodes before succ, which a list
// kept strictly clockwise from us cannot hold behind it.
func mergeSuccList(self, succ Info, succsOfSucc []Info, cap int) []Info {
	out := []Info{succ}
	for _, s := range succsOfSucc {
		if s.Addr == self.Addr {
			break
		}
		if s.Addr != succ.Addr {
			out = append(out, s)
		}
	}
	return capList(dedupeInfos(out), cap)
}

func dedupeInfos(in []Info) []Info {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, i := range in {
		if i.IsZero() || seen[i.Addr] {
			continue
		}
		seen[i.Addr] = true
		out = append(out, i)
	}
	return out
}

func capList(in []Info, max int) []Info {
	if len(in) > max {
		return in[:max]
	}
	return in
}

// FixFingers rebuilds the node's long links by the Canon merge (Sections 2.1
// and 2.2): the geometry's full link rule within the leaf domain, and at
// every higher level only links the geometry's metric ranks strictly shorter
// than the bound carried up from the level below; the result is published as
// one new routing epoch. The name is Chord's; the per-ring rule and the
// bound are the geometry's (levelLinks, mergeBound — Chord fingers for
// Crescendo, XOR buckets for Kandy, harmonic draws for Cacophony). A run
// whose ctx ends keeps the links it started with.
func (n *Node) FixFingers(ctx context.Context) {
	fingers := make(map[uint64]Info)
	bound := n.space.Size()
	for l := n.levels; l >= 0; l-- {
		n.geom.levelLinks(ctx, n, l, prefixAt(n.self.Name, l), bound, fingers)
		var succ Info
		n.mu.Lock()
		if len(n.succs[l]) > 0 && n.succs[l][0].Addr != n.self.Addr {
			succ = n.succs[l][0]
		}
		n.mu.Unlock()
		bound = n.geom.mergeBound(n, bound, succ, fingers)
	}
	if n.overran(ctx) {
		return // the lookups that failed for lack of time found nothing out
	}
	n.mu.Lock()
	n.fingers = fingers
	n.publishRoutingLocked()
	n.mu.Unlock()
}
