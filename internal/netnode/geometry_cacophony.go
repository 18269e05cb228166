package netnode

import (
	"context"
	"math"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/symphony"
	"github.com/canon-dht/canon/internal/transport"
)

// Canonical Symphony (paper Section 5.2): per level, floor(log2(n)) long
// links whose clockwise lengths follow the harmonic distribution over an
// *estimated* ring size n, under the Canon merge bound (the successor
// distance of the level below, symphony.Geometry.Bound). Next-hop choice is
// 1-lookahead: a hop ranks each window candidate by the key distance left
// after the best advance reachable through it — the candidate itself or its
// known ring successor — in forwardSet. The successor tables that power the
// lookahead travel in a periodic lookaheadReq/lookaheadResp exchange
// (lookaheadExchange).

// lookaheadFanout bounds how many contacts one lookahead exchange round
// queries.
const lookaheadFanout = 16

// lookKey identifies one lookahead fact: the clockwise distance from self to
// the level-`level` ring successor of the contact at `addr`.
type lookKey struct {
	addr  string
	level int
}

// harmonicLinks is Cacophony's levelLinks, the Symphony harmonic rule:
// draws against the ring's estimated size, keeping only links strictly
// shorter than the bound. Draws are independent; a rejected draw is simply
// not replaced (symphony.Geometry.MergeLinks).
func (n *Node) harmonicLinks(ctx context.Context, l int, prefix string, bound uint64, fingers map[uint64]Info) {
	est := n.ringEstimate(l)
	draws := int(math.Floor(math.Log2(float64(est))))
	for i := 0; i < draws; i++ {
		n.mu.Lock()
		u := n.rng.Float64()
		n.mu.Unlock()
		d := symphony.HarmonicDraw(n.space, float64(est), u)
		if d >= bound {
			continue
		}
		n.probeLink(ctx, prefix, uint64(n.space.Add(id.ID(n.self.ID), d)), 1, bound, fingers)
	}
}

// ringEstimate estimates the level-`level` ring size the way a live Symphony
// node does: from the arc its own successor list spans
// (symphony.EstimateFromArc), averaged with the estimates neighbors reported
// in the last lookahead exchange. Falls back to 2 when the node knows
// nothing yet — one draw, which stabilization's successor links back up.
func (n *Node) ringEstimate(level int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var sum uint64
	var cnt uint64
	if s := n.succs[level]; len(s) > 0 && s[len(s)-1].Addr != n.self.Addr {
		if arc := n.clockwise(n.self.ID, s[len(s)-1].ID); arc > 0 {
			sum += uint64(symphony.EstimateFromArc(n.space, len(s), arc))
			cnt++
		}
	}
	if n.ests[level] > 0 {
		sum += n.ests[level]
		cnt++
	}
	if cnt == 0 {
		return 2
	}
	est := int(sum / cnt)
	if est < 2 {
		est = 2
	}
	return est
}

// lookaheadExchange is Cacophony's maintain: the lookahead neighbor
// exchange. The node asks its per-level first successors and current long
// links for their own per-level successors and ring-size estimates, then
// swaps the fresh tables in wholesale — a contact that stopped answering
// drops out, and the routing view republishes once with one consistent
// lookahead state. An exchange whose ctx ended keeps the old tables
// (overran).
func (n *Node) lookaheadExchange(ctx context.Context) {
	n.mu.Lock()
	targets := make([]Info, 0, lookaheadFanout)
	seen := make(map[string]bool, lookaheadFanout)
	add := func(i Info) {
		if i.IsZero() || i.Addr == n.self.Addr || seen[i.Addr] || len(targets) >= lookaheadFanout {
			return
		}
		seen[i.Addr] = true
		targets = append(targets, i)
	}
	for l := 0; l <= n.levels; l++ {
		if len(n.succs[l]) > 0 {
			add(n.succs[l][0])
		}
	}
	for _, f := range n.fingers {
		add(f)
	}
	levels := n.levels
	n.mu.Unlock()

	looks := make(map[lookKey]uint64, len(targets))
	estSum := make([]uint64, levels+1)
	estCnt := make([]uint64, levels+1)
	for _, t := range targets {
		// Levels above the lowest common domain have different prefixes on
		// the two sides, so only the shared ones are exchanged.
		shared := sharedLevels(n.self.Name, t.Name)
		req, err := transport.NewMessage(msgLookahead, lookaheadReq{Levels: shared})
		if err != nil {
			continue
		}
		raw, err := n.call(ctx, t.Addr, req)
		if err != nil {
			continue
		}
		var resp lookaheadResp
		if err := raw.Decode(&resp); err != nil {
			continue
		}
		for l := 0; l <= shared && l < len(resp.Succs) && l <= levels; l++ {
			s := resp.Succs[l]
			if s.IsZero() || s.Addr == t.Addr || s.Addr == n.self.Addr {
				continue // no lookahead through an alone peer or back to us
			}
			looks[lookKey{addr: t.Addr, level: l}] = n.clockwise(n.self.ID, s.ID)
		}
		for l := 0; l <= shared && l < len(resp.Ests) && l <= levels; l++ {
			if resp.Ests[l] > 0 {
				estSum[l] += resp.Ests[l]
				estCnt[l]++
			}
		}
	}
	if n.overran(ctx) {
		return
	}
	n.mu.Lock()
	n.looks = looks
	for l := range estSum {
		if estCnt[l] > 0 {
			n.ests[l] = estSum[l] / estCnt[l]
		}
	}
	n.publishRoutingLocked()
	n.mu.Unlock()
}

// handleLookahead serves one side of the lookahead exchange from the
// published routing view: the node's first successor and arc-based ring-size
// estimate for every requested level of its chain. No locks — the view is
// one complete epoch.
func (n *Node) handleLookahead(req lookaheadReq) lookaheadResp {
	v := n.routing.Load()
	top := req.Levels
	if top < 0 {
		top = 0
	}
	if top > v.levels {
		top = v.levels
	}
	resp := lookaheadResp{Succs: make([]Info, top+1), Ests: make([]uint64, top+1)}
	for l := 0; l <= top; l++ {
		resp.Succs[l] = v.succAt(l)
		if s := v.succs[l]; len(s) > 0 && s[len(s)-1].Addr != v.self.Addr {
			if arc := v.space.Clockwise(id.ID(v.self.ID), id.ID(s[len(s)-1].ID)); arc > 0 {
				resp.Ests[l] = uint64(symphony.EstimateFromArc(v.space, len(s), arc))
			}
		}
	}
	return resp
}
