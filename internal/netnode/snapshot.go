// Epoch/copy-on-write routing snapshots: the lock-free read side of the
// node's routing state.
//
// The mutable routing tables (Node.preds/succs/fingers, guarded by Node.mu)
// stay the write-side source of truth, but the forwarding hot path never
// reads them. Instead every mutation republishes an immutable routingView
// through a single atomic-pointer swap, and handleLookup loads the pointer
// once per hop: one complete, internally consistent view per lookup, no
// mutex, no allocation, and no possibility of observing level 0 from one
// stabilization round and level 2 from another (a "torn" view).
//
// Everything a forwarding decision needs is precomputed at build time:
//   - the per-level candidate sets (fingers + all levels' successor lists +
//     predecessors, deduplicated, filtered into each domain of the node's
//     chain), sorted ascending by clockwise distance so a binary search finds
//     the advance-without-overshoot window;
//   - each candidate's Canon link-retention admissibility (Section 2.2) and
//     the routing level of the hop it would take (the span's Level field);
//   - the node's own domain-prefix chain, so request prefixes resolve to a
//     level by string compare instead of splitting.
//
// Memory reclamation is delegated to the garbage collector: a reader that
// loaded an old epoch keeps it alive for the duration of one forwarding
// decision, after which the view becomes unreachable and is collected. No
// hazard pointers, no epochs-in-flight bookkeeping.
//
// The builder in this file is the ONLY place snapshot types may be written;
// canonvet's snapshotmut check enforces that mechanically via the
// //canonvet:immutable markers on the type declarations below.
package netnode

import (
	"sort"

	"github.com/canon-dht/canon/internal/id"
)

// forwardAttemptLimit bounds how many next-hop candidates one hop will try
// before answering best-effort (a whole region being down is a stabilization
// problem, not a per-lookup one).
const forwardAttemptLimit = 8

// routingView is one published epoch of routing state. It is immutable after
// buildRoutingView returns: readers share it without synchronization beyond
// the atomic pointer load that obtained it.
//
//canonvet:immutable
type routingView struct {
	// epoch counts publications, starting at 1 for the view New installs.
	// epochSeal is set to the same value as the builder's final write; the
	// snapshot-consistency suite asserts they always agree, which regresses
	// any future "optimization" that replaces the single pointer swap with
	// per-field publication.
	epoch  uint64
	space  id.Space
	self   Info
	levels int
	// geom is the node's routing geometry: forwardSet's ranking switches on
	// it without dynamic dispatch.
	geom geomKind

	// prefixes[l] is prefixAt(self.Name, l): the only domain prefixes this
	// node can serve lookups for.
	prefixes []string

	preds   []Info   // per level
	succs   [][]Info // per level, ascending clockwise from self
	fingers []Info   // sorted by ID, for Fingers()-style enumeration

	// cands[l] holds every distinct contact inside domain prefixes[l],
	// sorted ascending by clockwise distance from self (ties by address).
	cands [][]viewCandidate

	// looks[l][i] is Cacophony's 1-lookahead fact for cands[l][i]: the
	// clockwise distance from self to that contact's level-l ring successor,
	// 0 when unknown (no exchange yet, or a non-Cacophony geometry — the
	// scorer then degrades to the candidate's own advance). Kept parallel to
	// cands rather than inside viewCandidate so candidate copies stay one
	// cache line.
	looks [][]uint64

	epochSeal uint64
}

// viewCandidate is one precomputed forwarding candidate inside a
// routingView. dist is always >= 1 (zero-advance contacts are dropped at
// build time) and admissible caches the Section 2.2 link-retention verdict.
//
//canonvet:immutable
type viewCandidate struct {
	info Info
	// dist is the clockwise ring distance from self to the candidate.
	dist uint64
	// level is sharedLevels(self.Name, info.Name): the routing level a hop
	// to this candidate takes, recorded in trace spans.
	level int
	// admissible is the Canon link-retention rule's verdict for using this
	// contact as a greedy candidate (canonAdmissible in reference_test.go is
	// the mutex-held reference this precomputation must agree with).
	admissible bool
}

// levelOf resolves a request's domain prefix to a level of this node's
// chain. ok is false when the prefix does not name one of the node's own
// domains — exactly the lookups inDomain(self.Name, prefix) rejects. It
// allocates nothing.
func (v *routingView) levelOf(prefix string) (int, bool) {
	l := prefixLevel(prefix)
	if l > v.levels || v.prefixes[l] != prefix {
		return 0, false
	}
	return l, true
}

// succAt returns the node's current successor inside its level-l domain
// (itself when alone), mirroring succInDomain on the snapshot.
func (v *routingView) succAt(l int) Info {
	if len(v.succs[l]) == 0 {
		return v.self
	}
	return v.succs[l][0]
}

// bracket returns c's ring successor inside the level-l domain when the
// view's successor list names it and it overshoots key — so c is the key's
// closest predecessor there: the list entry after c, or this node itself
// when c ends the list and is also the level's predecessor. ok is false when
// the list does not bracket key at c. It allocates nothing.
func (v *routingView) bracket(key uint64, l int, c Info) (next Info, ok bool) {
	list := v.succs[l]
	for i, s := range list {
		if s.Addr != c.Addr {
			continue
		}
		if i+1 == len(list) {
			return v.self, v.preds[l].Addr == c.Addr
		}
		next = list[i+1]
		rem := v.space.Clockwise(id.ID(v.self.ID), id.ID(key))
		return next, v.space.Clockwise(id.ID(v.self.ID), id.ID(next.ID)) > rem
	}
	return Info{}, false
}

// forwardSet fills dst with up to len(dst) forwarding candidates for key
// within the level-l domain, in the order one hop should try them: every
// admissible candidate in the advance-without-overshoot window, ranked by
// the geometry (scoreCandidate, rankedBefore), peers the failure detector
// prefers before every distrusted one — distrusted ones sink to the back as
// last-resort spares, so a wrongly accused peer cannot partition the lookup.
// It returns how many candidates it wrote, the address of the candidate the
// ranking puts first irrespective of health (for the RouteAround span flag),
// and whether that candidate was demoted behind a healthy one (the
// route-around metric). The call takes no locks and performs no heap
// allocations — this is the forwarding hot path.
func (v *routingView) forwardSet(health *healthTracker, key uint64, l int, dst []viewCandidate) (n int, bestAddr string, routedAround bool) {
	rem := v.space.Clockwise(id.ID(v.self.ID), id.ID(key))
	if rem == 0 {
		return 0, "", false
	}
	cands := v.cands[l]
	// Binary search for the end of the advance-without-overshoot window:
	// candidates[0:lo] all have 1 <= dist <= rem.
	lo, hi := 0, len(cands)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cands[mid].dist <= rem {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var pref, spare [forwardAttemptLimit]viewCandidate
	var prefScore, spareScore [forwardAttemptLimit]uint64
	nPref, nSpare := 0, 0
	var best viewCandidate
	var bestScore uint64
	sawBest, bestPref := false, false
	for i := 0; i < lo; i++ {
		c := cands[i]
		if !c.admissible {
			continue
		}
		s := v.scoreCandidate(c, v.looks[l][i], key, rem)
		p := health.preferred(c.info.Addr)
		if !sawBest || v.rankedBefore(s, c, bestScore, best) {
			sawBest, best, bestScore, bestPref = true, c, s, p
		}
		if p {
			nPref = v.insertRanked(pref[:], prefScore[:], nPref, c, s)
		} else {
			nSpare = v.insertRanked(spare[:], spareScore[:], nSpare, c, s)
		}
	}
	for i := 0; i < nPref && n < len(dst); i++ {
		dst[n] = pref[i]
		n++
	}
	routedAround = sawBest && !bestPref && n > 0
	for i := 0; i < nSpare && n < len(dst); i++ {
		dst[n] = spare[i]
		n++
	}
	return n, best.info.Addr, routedAround
}

// scoreCandidate ranks one window candidate under the view's geometry; lower
// is better. look is the candidate's parallel looks[l][i] entry.
func (v *routingView) scoreCandidate(c viewCandidate, look, key, rem uint64) uint64 {
	if v.geom == geomKandy {
		return v.space.XOR(id.ID(c.info.ID), id.ID(key))
	}
	// The key distance left after the effective advance through c: c itself,
	// or, for Cacophony's 1-lookahead, c's known ring successor when that
	// lands farther along without overshooting the key. Crescendo has no
	// lookahead facts (look is 0), so its order is maximal advance first.
	eff := c.dist
	if look > c.dist && look <= rem {
		eff = look
	}
	return rem - eff
}

// rankedBefore orders (score, candidate) pairs: score ascending, then larger
// clockwise advance, then address — a strict total order over distinct
// contacts. Kandy ranks level-major first — candidates in a deeper shared
// ring beat every shallower one regardless of score — which is the paper's
// canonical construction (route within the lowest ring while its links still
// advance, then move up) and what makes routes from one domain converge on a
// single exit proxy (Section 3.2) instead of leaving wherever an XOR-close
// outside contact happens to be known.
func (v *routingView) rankedBefore(s1 uint64, c1 viewCandidate, s2 uint64, c2 viewCandidate) bool {
	if v.geom == geomKandy && c1.level != c2.level {
		return c1.level > c2.level
	}
	if s1 != s2 {
		return s1 < s2
	}
	if c1.dist != c2.dist {
		return c1.dist > c2.dist
	}
	return c1.info.Addr < c2.info.Addr
}

// insertRanked inserts c into the first n slots of the fixed rank buffer,
// keeping it sorted by rankedBefore and dropping the worst entry on
// overflow; it returns the new occupancy. buf and scores are parallel
// stack arrays — no heap traffic.
func (v *routingView) insertRanked(buf []viewCandidate, scores []uint64, n int, c viewCandidate, s uint64) int {
	j := n
	for j > 0 && v.rankedBefore(s, c, scores[j-1], buf[j-1]) {
		j--
	}
	if j >= len(buf) {
		return n
	}
	last := n
	if last >= len(buf) {
		last = len(buf) - 1
	}
	for k := last; k > j; k-- {
		buf[k] = buf[k-1]
		scores[k] = scores[k-1]
	}
	buf[j] = c
	scores[j] = s
	if n < len(buf) {
		n++
	}
	return n
}

// publishRouting rebuilds and atomically publishes the node's routing view
// from its mutable tables. Callers that already hold n.mu use
// publishRoutingLocked.
func (n *Node) publishRouting() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publishRoutingLocked()
}

// publishRoutingLocked is publishRouting for callers holding n.mu. Holding
// the node lock across build+swap serializes publishers, so epochs are
// strictly monotonic and every published view reflects one complete write-
// side state.
func (n *Node) publishRoutingLocked() {
	var epoch uint64 = 1
	if prev := n.routing.Load(); prev != nil {
		epoch = prev.epoch + 1
	}
	n.routing.Store(buildRoutingView(epoch, n.space, n.self, n.levels, n.geom,
		n.preds, n.succs, n.fingers, n.looks))
}

// buildRoutingView deep-copies the mutable routing tables into a fresh
// immutable view and precomputes the per-level candidate sets. It is the
// only function allowed to write routingView/viewCandidate fields.
func buildRoutingView(epoch uint64, space id.Space, self Info, levels int, geom geomKind,
	preds []Info, succs [][]Info, fingers map[uint64]Info, looks map[lookKey]uint64) *routingView {

	v := &routingView{
		epoch:  epoch,
		space:  space,
		self:   self,
		levels: levels,
		geom:   geom,
	}
	v.prefixes = make([]string, levels+1)
	v.preds = make([]Info, levels+1)
	v.succs = make([][]Info, levels+1)
	for l := 0; l <= levels; l++ {
		v.prefixes[l] = prefixAt(self.Name, l)
		if l < len(preds) {
			v.preds[l] = preds[l]
		}
		if l < len(succs) {
			v.succs[l] = append([]Info(nil), succs[l]...)
		}
	}
	v.fingers = make([]Info, 0, len(fingers))
	for _, f := range fingers {
		v.fingers = append(v.fingers, f)
	}
	sort.Slice(v.fingers, func(i, j int) bool { return v.fingers[i].ID < v.fingers[j].ID })

	// Gather every distinct contact once (fingers, all levels' successor
	// lists, predecessors), then project it into each domain of the chain it
	// belongs to. seen is keyed by address, like the reference candidates()
	// in reference_test.go.
	contacts := make([]Info, 0, len(v.fingers)+2*(levels+1))
	seen := make(map[string]bool, cap(contacts))
	add := func(i Info) {
		if i.IsZero() || i.Addr == self.Addr || seen[i.Addr] {
			return
		}
		seen[i.Addr] = true
		contacts = append(contacts, i)
	}
	for _, f := range v.fingers {
		add(f)
	}
	for l := 0; l <= levels; l++ {
		for _, s := range v.succs[l] {
			add(s)
		}
		add(v.preds[l])
	}

	v.cands = make([][]viewCandidate, levels+1)
	v.looks = make([][]uint64, levels+1)
	for l := 0; l <= levels; l++ {
		prefix := v.prefixes[l]
		var cl []viewCandidate
		for _, c := range contacts {
			if !inDomain(c.Name, prefix) {
				continue
			}
			d := space.Clockwise(id.ID(self.ID), id.ID(c.ID))
			if d == 0 {
				continue // zero advance: never a forwarding candidate
			}
			cl = append(cl, viewCandidate{
				info:       c,
				dist:       d,
				level:      sharedLevels(self.Name, c.Name),
				admissible: geomAdmissible(geom, space, self, levels, v.succs, c, d),
			})
		}
		sort.Slice(cl, func(i, j int) bool {
			if cl[i].dist != cl[j].dist {
				return cl[i].dist < cl[j].dist
			}
			return cl[i].info.Addr < cl[j].info.Addr
		})
		v.cands[l] = cl
		lk := make([]uint64, len(cl))
		for i, c := range cl {
			lk[i] = looks[lookKey{addr: c.info.Addr, level: l}]
		}
		v.looks[l] = lk
	}
	v.epochSeal = epoch
	return v
}
