package netnode

import (
	"context"
	"fmt"
	"sort"

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
	if hops >= lookupHopLimit {
		return p, fmt.Errorf("netnode: route exceeded %d hops", lookupHopLimit)
	}
	var routedAround bool
	p.cnt, p.best, routedAround = v.forwardSet(n.health, key, level, p.order[:])
	if routedAround {
		n.m.routedAround.Inc()
	}
	return p, nil
}

// handleLookup implements greedy clockwise forwarding constrained to a
// domain: the receiving node either forwards to its neighbor closest to the
// key without overshooting, or — being the key's closest predecessor within
// the domain — answers with itself as the owner.
//
// On traced lookups (req.Trace != "") the node appends exactly one span to
// the context before forwarding — recording the routing level of the hop and
// whether the distance-best candidate was skipped — or a terminal Owner span
// when it answers. The node that entered the route (req.Hops == 0) archives
// the completed trace in its TraceStore and feeds the hop histogram, so both
// self-originated and client-originated lookups leave evidence where the
// route began.
//
// The node loads its published routing snapshot once (one complete epoch —
// never a torn mix of two stabilization rounds) and plans the hop from it
// (planHop). The untraced path also allocates no request objects — the
// forwarded request comes from a pool. Traced lookups additionally build
// span lists, whose backing arrays are pool-recycled per hop. A lookup
// routes around a candidate whose reply does not decode, error replies
// included: any node that can name an owner is as good as another.
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
	if plan.cnt > 0 {
		fwd := getLookupReq()
		defer putLookupReq(fwd)
		for _, cand := range plan.candidates() {
			fwd.Key, fwd.Prefix, fwd.Hops, fwd.Trace = req.Key, req.Prefix, req.Hops+1, req.Trace
			if req.Trace != "" {
				// The hop's routing level is the depth of the lowest common
				// domain with the next node: leaf-deep hops stay local,
				// level-0 hops cross top-level boundaries (Section 3.2).
				spans := fwd.Spans
				if spans == nil {
					spans = telemetry.GetSpans()
				}
				spans = append(spans[:0], req.Spans...)
				fwd.Spans = append(spans, telemetry.Span{
					Hop: req.Hops, Name: v.self.Name, ID: v.self.ID,
					Addr: v.self.Addr, Level: cand.level,
					RouteAround: cand.info.Addr != plan.best,
				})
			}
			msg, err := transport.NewMessage(msgLookup, fwd)
			if err != nil {
				return lookupResp{}, err
			}
			raw, err := n.call(ctx, cand.info.Addr, msg)
			if err != nil {
				continue
			}
			var resp lookupResp
			if err := raw.Decode(&resp); err != nil {
				continue
			}
			n.finishLookup(req, &resp)
			return resp, nil
		}
	}
	resp := lookupResp{Pred: v.self, Succ: v.succAt(level), Hops: req.Hops}
	if req.Trace != "" {
		resp.Trace = req.Trace
		// The response spans are freshly allocated, never pooled: they are
		// retained past this call (archived in the TraceStore, cached by
		// receiver-side dedup) and must not be recycled under a reader.
		resp.Spans = append(append([]telemetry.Span(nil), req.Spans...), telemetry.Span{
			Hop: req.Hops, Name: v.self.Name, ID: v.self.ID,
			Addr: v.self.Addr, Level: -1, Owner: true,
		})
	}
	n.finishLookup(req, &resp)
	return resp, nil
}

// finishLookup runs the entry-hop bookkeeping for a lookup answer about to
// travel back toward the originator: the route's entry node (req.Hops == 0)
// observes the hop count and archives a completed trace.
func (n *Node) finishLookup(req *lookupReq, resp *lookupResp) {
	if req.Hops != 0 {
		return
	}
	n.m.lookupHops.Observe(float64(resp.Hops))
	if req.Trace != "" && len(resp.Spans) > 0 {
		n.traces.Record(telemetry.Trace{
			ID: req.Trace, Key: req.Key, Prefix: req.Prefix, Spans: resp.Spans,
		})
		n.m.traceDone.Inc()
	}
}

// lookupFrom runs a constrained lookup starting at seed (possibly self).
func (n *Node) lookupFrom(ctx context.Context, seed Info, key uint64, prefix string) (lookupResp, error) {
	return n.lookupReqFrom(ctx, seed, lookupReq{Key: key, Prefix: prefix})
}

// lookupReqFrom dispatches a fully built lookup request through seed.
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

// newTraceID draws a reproducible trace identifier from the node's RNG.
func (n *Node) newTraceID() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return telemetry.NewTraceID(n.rng)
}

// sampleTrace decides whether an untraced public lookup should carry a trace
// context, per Config.TraceSampleRate.
func (n *Node) sampleTrace() bool {
	rate := n.cfg.TraceSampleRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < rate
}

// Lookup returns the node responsible for key within the domain named by
// prefix (the key's closest predecessor there). The node must itself belong
// to the domain. When Config.TraceSampleRate is set, a sampled fraction of
// calls additionally record a route trace into the node's TraceStore.
func (n *Node) Lookup(ctx context.Context, key uint64, prefix string) (Info, error) {
	if !inDomain(n.self.Name, prefix) {
		return Info{}, fmt.Errorf("%w: %q does not contain this node", ErrBadDomain, prefix)
	}
	req := lookupReq{Key: key, Prefix: prefix}
	if n.sampleTrace() {
		req.Trace = n.newTraceID()
		n.m.traceStarted.Inc()
	}
	resp, err := n.lookupReqFrom(ctx, n.self, req)
	if err != nil {
		return Info{}, err
	}
	return resp.Pred, nil
}

// LookupHops is Lookup plus the number of forwarding hops used, for
// measurements.
func (n *Node) LookupHops(ctx context.Context, key uint64, prefix string) (Info, int, error) {
	if !inDomain(n.self.Name, prefix) {
		return Info{}, 0, fmt.Errorf("%w: %q does not contain this node", ErrBadDomain, prefix)
	}
	resp, err := n.lookupFrom(ctx, n.self, key, prefix)
	if err != nil {
		return Info{}, 0, err
	}
	return resp.Pred, resp.Hops, nil
}

// TracedLookup runs a lookup with distributed route tracing always on: every
// hop appends a span (node, domain, routing level, route-around flag) and
// the completed trace — archived in the node's TraceStore under its ID — is
// returned alongside the owner. This is the live counterpart of the paper's
// path analyses: intra-domain locality and proxy convergence (Section 3.2)
// become assertions over the returned spans.
func (n *Node) TracedLookup(ctx context.Context, key uint64, prefix string) (Info, telemetry.Trace, error) {
	if !inDomain(n.self.Name, prefix) {
		return Info{}, telemetry.Trace{}, fmt.Errorf("%w: %q does not contain this node", ErrBadDomain, prefix)
	}
	req := lookupReq{Key: key, Prefix: prefix, Trace: n.newTraceID()}
	n.m.traceStarted.Inc()
	resp, err := n.lookupReqFrom(ctx, n.self, req)
	if err != nil {
		return Info{}, telemetry.Trace{}, err
	}
	tr := telemetry.Trace{ID: req.Trace, Key: key, Prefix: prefix, Spans: resp.Spans}
	return resp.Pred, tr, nil
}

// StabilizeOnce runs one round of the per-level stabilization protocol:
// refresh successor lists, adopt closer successors learned from them, prune
// dead predecessors, and notify successors of our presence. It also
// re-registers the node in its domains' membership registries (whose owners
// drift as the key space repartitions) and uses the registry to escape
// level-isolation when the node wrongly believes it is alone in a domain.
func (n *Node) StabilizeOnce(ctx context.Context) {
	for l := 0; l <= n.levels; l++ {
		n.stabilizeLevel(ctx, l)
	}
	n.registerSelf(ctx)
	n.replicateOnce(ctx)
	n.geom.maintain(ctx, n)
	n.m.suspects.Set(float64(len(n.health.snapshot())))
	for l := 1; l <= n.levels; l++ {
		n.mu.Lock()
		alone := len(n.succs[l]) == 0 ||
			(len(n.succs[l]) == 1 && n.succs[l][0].Addr == n.self.Addr &&
				(n.preds[l].IsZero() || n.preds[l].Addr == n.self.Addr))
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

func (n *Node) stabilizeLevel(ctx context.Context, level int) {
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
	// cross-level evidence like this merges the cycles back together.
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
	sort.Slice(list, func(i, j int) bool {
		return n.clockwise(n.self.ID, list[i].ID) < n.clockwise(n.self.ID, list[j].ID)
	})

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

	n.mu.Lock()
	if len(alive) == 0 || alive[0].Addr != succ.Addr {
		alive = append([]Info{succ}, alive...)
	}
	n.succs[level] = capList(dedupeInfos(alive), n.cfg.SuccessorListLen)
	// Drop a dead predecessor so notify can replace it.
	p := n.preds[level]
	n.publishRoutingLocked()
	n.mu.Unlock()
	if !p.IsZero() && p.Addr != n.self.Addr {
		if _, err := n.pingAddr(ctx, p.Addr); err != nil {
			n.mu.Lock()
			if n.preds[level].Addr == p.Addr {
				n.preds[level] = Info{}
				n.publishRoutingLocked()
			}
			n.mu.Unlock()
		}
	}
}

// mergeSuccList builds [succ] + tail of the successor's own list, excluding
// ourselves.
func mergeSuccList(self, succ Info, succsOfSucc []Info, cap int) []Info {
	out := []Info{succ}
	for _, s := range succsOfSucc {
		if s.Addr == self.Addr || s.Addr == succ.Addr {
			continue
		}
		out = append(out, s)
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
// Crescendo, XOR buckets for Kandy, harmonic draws for Cacophony).
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
	n.mu.Lock()
	n.fingers = fingers
	n.publishRoutingLocked()
	n.mu.Unlock()
}
