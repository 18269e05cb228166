package netnode

import (
	"context"
	"fmt"
	"sort"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/kademlia"
	"github.com/canon-dht/canon/internal/transport"
)

// Canonical Kademlia (paper Section 5.1): XOR metric, one long link per XOR
// bucket, and at every merge only candidates whose XOR distance beats the
// shortest link the node already keeps (kademlia.Geometry). Next-hop choice
// ranks the clockwise advance-without-overshoot window by XOR distance to the
// key — the iterative-friendly "closest known contact" order real Kademlia
// uses — in forwardSet.

const (
	// bucketProbeSeeds is how many of the node's own XOR-nearest contacts a
	// bucket probe starts from.
	bucketProbeSeeds = 3
	// bucketRefFanout bounds the contacts one bucket-refresh response
	// carries, like Kademlia's k closest.
	bucketRefFanout = 8
)

// bucketLinks is Kandy's levelLinks, the Kademlia bucket rule: one
// representative per XOR bucket [2^k, 2^(k+1)) that lies below the bound.
func (n *Node) bucketLinks(ctx context.Context, prefix string, bound uint64, fingers map[uint64]Info) {
	for k := uint(0); k < n.space.Bits(); k++ {
		low := uint64(1) << k
		if low >= bound {
			break // every remaining bucket lies entirely beyond the bound
		}
		target := uint64(kademlia.BucketTarget(n.space, id.ID(n.self.ID), k))
		cand := n.bucketProbe(ctx, prefix, target)
		if cand.IsZero() || cand.Addr == n.self.Addr {
			continue
		}
		d := n.space.XOR(id.ID(n.self.ID), id.ID(cand.ID))
		if d >= low && d < low<<1 && d < bound {
			fingers[cand.ID] = cand
		}
	}
}

// bucketProbe runs a short iterative probe — the live analog of Kademlia
// FIND_NODE — for the contact XOR-nearest to target within the domain named
// prefix: it seeds from the XOR-nearest contacts of the node's own routing
// view, asks each for the contacts *they* know nearest the target, then asks
// the best contact discovered. Two rounds suffice because the probe only
// needs a bucket representative, not the global XOR minimum.
func (n *Node) bucketProbe(ctx context.Context, prefix string, target uint64) Info {
	v := n.routing.Load()
	l, ok := v.levelOf(prefix)
	if !ok {
		return Info{}
	}
	var best Info
	var bestD uint64
	consider := func(c Info) {
		if c.IsZero() || c.Addr == n.self.Addr || !inDomain(c.Name, prefix) {
			return
		}
		d := n.space.XOR(id.ID(c.ID), id.ID(target))
		if best.IsZero() || d < bestD {
			best, bestD = c, d
		}
	}
	queried := make(map[string]bool, bucketProbeSeeds+1)
	ask := func(c Info) {
		if c.IsZero() || queried[c.Addr] {
			return
		}
		queried[c.Addr] = true
		req, err := transport.NewMessage(msgBucketRef, bucketRefReq{Prefix: prefix, Target: target})
		if err != nil {
			return
		}
		raw, err := n.call(ctx, c.Addr, req)
		if err != nil {
			return
		}
		var resp bucketRefResp
		if err := raw.Decode(&resp); err != nil {
			return
		}
		for _, got := range resp.Contacts {
			consider(got)
		}
	}
	seeds := v.xorNearest(target, l, bucketProbeSeeds)
	for _, s := range seeds {
		consider(s)
	}
	for _, s := range seeds {
		ask(s)
	}
	ask(best)
	return best
}

// xorNearest returns up to k distinct contacts from the view's level-l
// candidate set, XOR-nearest to target (ties by address). Control-plane
// only; the forwarding hot path never calls it.
func (v *routingView) xorNearest(target uint64, l, k int) []Info {
	type scored struct {
		info Info
		d    uint64
	}
	all := make([]scored, 0, len(v.cands[l]))
	for _, c := range v.cands[l] {
		all = append(all, scored{c.info, v.space.XOR(id.ID(c.info.ID), id.ID(target))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].info.Addr < all[j].info.Addr
	})
	out := make([]Info, 0, k)
	for _, s := range all {
		if len(out) >= k {
			break
		}
		out = append(out, s.info)
	}
	return out
}

// handleBucketRef serves a bucket-refresh probe from the published routing
// view: the contacts this node knows XOR-nearest to the probe target within
// the requested domain. No locks — the view is one complete epoch.
func (n *Node) handleBucketRef(req bucketRefReq) (bucketRefResp, error) {
	v := n.routing.Load()
	l, ok := v.levelOf(req.Prefix)
	if !ok {
		return bucketRefResp{}, fmt.Errorf("%w: %q does not contain this node", ErrBadDomain, req.Prefix)
	}
	return bucketRefResp{Contacts: v.xorNearest(req.Target, l, bucketRefFanout)}, nil
}
