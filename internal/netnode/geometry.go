// The live routing geometry: the axis along which the Canon construction is
// generic (paper Sections 5-6). A node's geometry is one value, a geomKind,
// and every rule it owns is a switch on that value:
//
//   - the link table: which long links the node builds on one ring and the
//     bound the Canon merge carries from each ring to the next one out
//     (levelLinks and mergeBound, the live analog of the offline
//     core.Geometry BaseLinks/MergeLinks; Node.FixFingers is the merge loop
//     that calls them);
//   - the admissibility predicate: the Section 2.2 link-retention verdict a
//     lookup applies before using a contact as a greedy candidate
//     (geomAdmissible);
//   - the next-hop choice: how one forwarding hop ranks the candidates in
//     the advance-without-overshoot window (scoreCandidate and rankedBefore,
//     used by forwardSet in snapshot.go);
//   - geometry-specific maintenance RPCs: Kandy's bucket-refresh probes and
//     Cacophony's lookahead neighbor exchange (maintain; docs/WIRE.md §9).
//
// What a geometry does NOT change: the per-level clockwise rings
// (successor lists, predecessors, stabilization, notify), ownership (a key
// belongs to its clockwise predecessor within the domain), storage,
// replication and anti-entropy. Every geometry routes inside the clockwise
// advance-without-overshoot window, so lookups terminate and resolve to the
// same owner regardless of geometry — geometries differ in which links exist
// and which window candidate a hop prefers, not in what an answer means.
//
// The written contract a fourth geometry must satisfy lives in
// docs/GEOMETRY.md.
package netnode

import (
	"context"
	"fmt"

	"github.com/canon-dht/canon/internal/id"
)

// Geometry names accepted by Config.Geometry.
const (
	// GeometryCrescendo is the Canonical Chord of Section 3 (the default):
	// clockwise metric, powers-of-two fingers, maximal-advance next hop.
	GeometryCrescendo = "crescendo"
	// GeometryKandy is the Canonical Kademlia of Section 5.1: XOR metric,
	// one link per XOR bucket, XOR-nearest next hop within the clockwise
	// window.
	GeometryKandy = "kandy"
	// GeometryCacophony is the Canonical Symphony of Section 5.2: harmonic
	// long links drawn against an estimated ring size, 1-lookahead next hop.
	GeometryCacophony = "cacophony"
)

// geomKind is a node's routing geometry — the one value the control plane
// (FixFingers, StabilizeOnce) and the forwarding decision both switch on.
// The set of geometries is closed at compile time, so a switch states each
// rule in one place and keeps the zero-alloc hot path free of dynamic
// dispatch.
type geomKind uint8

const (
	geomCrescendo geomKind = iota
	geomKandy
	geomCacophony
)

// geometryByName resolves a Config.Geometry spelling; empty selects
// Crescendo.
func geometryByName(name string) (geomKind, error) {
	switch name {
	case "", GeometryCrescendo:
		return geomCrescendo, nil
	case GeometryKandy:
		return geomKandy, nil
	case GeometryCacophony:
		return geomCacophony, nil
	default:
		return 0, fmt.Errorf("netnode: unknown geometry %q (want %s, %s or %s)",
			name, GeometryCrescendo, GeometryKandy, GeometryCacophony)
	}
}

// name is the Config.Geometry spelling, reported by Node.GeometryName.
func (g geomKind) name() string {
	switch g {
	case geomKandy:
		return GeometryKandy
	case geomCacophony:
		return GeometryCacophony
	default:
		return GeometryCrescendo
	}
}

// levelLinks applies the geometry's flat link-creation rule on the node's
// level-l ring (the domain named prefix), adding to fingers every link it
// finds that is, in the geometry's metric, strictly shorter than bound.
// Node.FixFingers calls it leaf ring first and root last.
//
// Crescendo's is the Chord rule: for every power of two below the bound, the
// first ring member at least that far clockwise, kept when it is itself
// nearer than the bound. Kandy's (bucketLinks) and Cacophony's
// (harmonicLinks) live in their own files.
func (g geomKind) levelLinks(ctx context.Context, n *Node, l int, prefix string, bound uint64, fingers map[uint64]Info) {
	switch g {
	case geomKandy:
		n.bucketLinks(ctx, prefix, bound, fingers)
	case geomCacophony:
		n.harmonicLinks(ctx, l, prefix, bound, fingers)
	default:
		for k := uint(0); k < n.space.Bits(); k++ {
			step := uint64(1) << k
			if step >= bound {
				break
			}
			n.probeLink(ctx, prefix, uint64(n.space.Add(id.ID(n.self.ID), step)), step, bound, fingers)
		}
	}
}

// probeLink is the routed-lookup link probe of the clockwise geometries
// (Crescendo, Cacophony): it finds the ring successor of target inside the
// domain named prefix by looking up target-1 there, and adds it to fingers
// when its clockwise distance from the node lies in [lo, hi).
func (n *Node) probeLink(ctx context.Context, prefix string, target, lo, hi uint64, fingers map[uint64]Info) {
	resp, err := n.lookupReqFrom(ctx, n.self, lookupReq{Key: uint64(n.space.Sub(id.ID(target), 1)), Prefix: prefix})
	if err != nil {
		return
	}
	cand := resp.Succ
	if cand.IsZero() || cand.Addr == n.self.Addr {
		return
	}
	if d := n.clockwise(n.self.ID, cand.ID); d >= lo && d < hi {
		fingers[cand.ID] = cand
	}
}

// mergeBound returns the bound the next merge, one level out, admits links
// under: the geometry's distance to the nearest thing the node links to on
// the ring just done. succ is the node's successor on that ring, zero when
// it is alone there; fingers is every link kept so far.
//
// The clockwise geometries (Crescendo, Cacophony) keep only links shorter
// than the clockwise distance to that successor (symphony.Geometry.Bound).
// Kandy keeps only links whose XOR distance beats the shortest link the node
// ends up with on the ring just done — its ring successor there and the
// bucket links kept so far (kademlia.Geometry.Bound).
func (g geomKind) mergeBound(n *Node, bound uint64, succ Info, fingers map[uint64]Info) uint64 {
	if g != geomKandy {
		if succ.IsZero() {
			return bound
		}
		return n.clockwise(n.self.ID, succ.ID)
	}
	if !succ.IsZero() {
		bound = min(bound, n.space.XOR(id.ID(n.self.ID), id.ID(succ.ID)))
	}
	for _, f := range fingers {
		bound = min(bound, n.space.XOR(id.ID(n.self.ID), id.ID(f.ID)))
	}
	return bound
}

// maintain runs the geometry's extra per-stabilization-round protocol:
// Cacophony's lookahead exchange. Crescendo's links need nothing beyond
// FixFingers and ring stabilization, and Kandy's bucket-refresh probes run
// inside levelLinks.
func (g geomKind) maintain(ctx context.Context, n *Node) {
	if g == geomCacophony {
		n.lookaheadExchange(ctx)
	}
}

// GeometryName returns the node's routing geometry ("crescendo", "kandy" or
// "cacophony").
func (n *Node) GeometryName() string { return n.geom.name() }

// geomAdmissible evaluates the Canon link-retention rule (Section 2.2) under
// a geometry's metric. It is the single source of truth for admissibility:
// the snapshot builder (buildRoutingView) and the mutex-held reference the
// tests compare it with (canonAdmissible, reference_test.go) both call it,
// so the two can never drift.
//
// A contact whose lowest common domain with the node sits at depth s leaves
// the node's level-(s+1) domain, and the merge that created level s only
// retains such links when they are strictly shorter — in the geometry's
// metric — than the node's distance to its successor inside the level-(s+1)
// ring:
//
//   - Crescendo and Cacophony measure both sides in clockwise ring distance
//     (Chord fingers and Symphony draws are both clockwise constructions;
//     symphony.Geometry.Bound is the successor distance).
//   - Kandy measures in XOR distance (kademlia.Geometry.Bound: the shortest
//     existing link), but additionally admits contacts within the clockwise
//     bound: the ring substrate's own links (successors learned through
//     stabilization) are what guarantee forward progress, and the XOR
//     metric is not monotone along the ring, so without the clockwise
//     clause a node's ring successor could be inadmissible and strand a
//     lookup one hop short of its owner.
//
// dist is the precomputed clockwise distance from self to cand.
func geomAdmissible(g geomKind, space id.Space, self Info, levels int, succs [][]Info, cand Info, dist uint64) bool {
	s := sharedLevels(self.Name, cand.Name)
	if s >= levels {
		return true // same leaf domain: the geometry's full link table applies
	}
	for l := s + 1; l <= levels; l++ {
		if len(succs[l]) > 0 && succs[l][0].Addr != self.Addr {
			if dist < space.Clockwise(id.ID(self.ID), id.ID(succs[l][0].ID)) {
				return true
			}
			if g == geomKandy {
				return space.XOR(id.ID(self.ID), id.ID(cand.ID)) <
					space.XOR(id.ID(self.ID), id.ID(succs[l][0].ID))
			}
			return false
		}
	}
	return true // no deeper ring known yet (still joining): no bound to apply
}
