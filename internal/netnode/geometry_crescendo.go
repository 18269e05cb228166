package netnode

import (
	"context"

	"github.com/canon-dht/canon/internal/id"
)

// crescendoGeometry is Canonical Chord (paper Section 3), the default
// geometry: clockwise metric, powers-of-two fingers under the merge bound,
// maximal clockwise advance as the next-hop choice (the forwardSet fast
// path).
type crescendoGeometry struct{ successorBound }

func (crescendoGeometry) kind() geomKind { return geomCrescendo }
func (crescendoGeometry) name() string   { return GeometryCrescendo }

// maintain implements geometry: Crescendo's links need nothing beyond
// FixFingers and ring stabilization.
func (crescendoGeometry) maintain(context.Context, *Node) {}

// levelLinks implements geometry with the Chord rule: for every power of two
// below the bound, the first ring member at least that far clockwise, kept
// when it is itself nearer than the bound.
func (crescendoGeometry) levelLinks(ctx context.Context, n *Node, _ int, prefix string, bound uint64, fingers map[uint64]Info) {
	for k := uint(0); k < n.space.Bits(); k++ {
		step := uint64(1) << k
		if step >= bound {
			break
		}
		target := uint64(n.space.Add(id.ID(n.self.ID), step))
		resp, err := n.lookupReqFrom(ctx, n.self, lookupReq{Key: uint64(n.space.Sub(id.ID(target), 1)), Prefix: prefix})
		if err != nil {
			continue
		}
		cand := resp.Succ
		if cand.IsZero() || cand.Addr == n.self.Addr {
			continue
		}
		d := n.clockwise(n.self.ID, cand.ID)
		if d >= step && d < bound {
			fingers[cand.ID] = cand
		}
	}
}
