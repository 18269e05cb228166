// The live Geometry abstraction: the axis along which the Canon construction
// is generic (paper Sections 5-6). A geometry owns everything about routing
// that is not the ring substrate itself:
//
//   - the link table: which long links the node builds on one ring and the
//     bound the Canon merge carries from each ring to the next one out
//     (levelLinks and mergeBound, the live analog of the offline
//     core.Geometry BaseLinks/MergeLinks; Node.FixFingers is the merge loop
//     that calls them);
//   - the admissibility predicate: the Section 2.2 link-retention verdict a
//     lookup applies before using a contact as a greedy candidate
//     (geomAdmissible);
//   - the next-hop choice: how one forwarding hop scores the candidates in
//     the advance-without-overshoot window (forwardSet / forwardSetScored in
//     snapshot.go, keyed on geomKind so the hot path stays free of dynamic
//     dispatch);
//   - geometry-specific maintenance RPCs (maintain): Kandy's bucket-refresh
//     probes and Cacophony's lookahead neighbor exchange (docs/WIRE.md §9).
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

// geomKind is the hot-path identity of a geometry. The forwarding decision
// and the snapshot builder switch on it directly — an interface call there
// would be dynamic dispatch on the zero-alloc path for no benefit, since the
// set of geometries is closed at compile time.
type geomKind uint8

const (
	geomCrescendo geomKind = iota
	geomKandy
	geomCacophony
)

// geometry is the control-plane face of a routing geometry. Implementations
// are stateless: all state lives on the Node, so a geometry value is shared
// freely.
type geometry interface {
	// kind is the hot-path switch key.
	kind() geomKind
	// name is the Config.Geometry spelling, reported by Node.GeometryName.
	name() string
	// levelLinks applies the geometry's flat link-creation rule on the
	// node's level-l ring (the domain named prefix), adding to fingers every
	// link it finds that is, in the geometry's metric, strictly shorter than
	// bound. Node.FixFingers calls it leaf ring first and root last.
	levelLinks(ctx context.Context, n *Node, l int, prefix string, bound uint64, fingers map[uint64]Info)
	// mergeBound returns the bound the next merge, one level out, admits
	// links under: the geometry's distance to the nearest thing the node
	// links to on the ring just done. succ is the node's successor on that
	// ring, zero when it is alone there; fingers is every link kept so far.
	mergeBound(n *Node, bound uint64, succ Info, fingers map[uint64]Info) uint64
	// maintain runs the geometry's extra per-stabilization-round protocol
	// (bucket refresh, lookahead exchange); a no-op for geometries whose
	// links need nothing beyond FixFingers.
	maintain(ctx context.Context, n *Node)
}

// successorBound is the mergeBound of the clockwise geometries (Crescendo,
// Cacophony): the next merge keeps only links shorter than the clockwise
// distance to the successor on the ring just done (symphony.Geometry.Bound).
type successorBound struct{}

func (successorBound) mergeBound(n *Node, bound uint64, succ Info, _ map[uint64]Info) uint64 {
	if succ.IsZero() {
		return bound
	}
	return n.clockwise(n.self.ID, succ.ID)
}

// geometryByName resolves a Config.Geometry spelling; empty selects
// Crescendo.
func geometryByName(name string) (geometry, error) {
	switch name {
	case "", GeometryCrescendo:
		return crescendoGeometry{}, nil
	case GeometryKandy:
		return kandyGeometry{}, nil
	case GeometryCacophony:
		return cacophonyGeometry{}, nil
	default:
		return nil, fmt.Errorf("netnode: unknown geometry %q (want %s, %s or %s)",
			name, GeometryCrescendo, GeometryKandy, GeometryCacophony)
	}
}

// GeometryName returns the node's routing geometry ("crescendo", "kandy" or
// "cacophony").
func (n *Node) GeometryName() string { return n.geom.name() }

// geomAdmissible evaluates the Canon link-retention rule (Section 2.2) under
// a geometry's metric. It is the single source of truth for admissibility:
// the snapshot builder (admissibleInView) and the mutex-held reference the
// tests compare it with (canonAdmissible, reference_test.go) both delegate
// here, so the two can never drift.
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
