package netnode

// The epoch-snapshot regression suite: proves the lock-free forwarding
// decision is allocation-free and mutex-free, that published views are never
// torn (epoch == epochSeal, epochs strictly monotonic) even under join/leave
// churn, and that the precomputed snapshot decision agrees with the
// mutex-held reference implementation (candidates + canonAdmissible) it
// replaced. The 64-way benchmark measures the decision; CI's bench-gate holds
// it at zero allocs/op.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// snapshotDomains is the synthetic namespace: two trees, three leaves each.
var snapshotDomains = []string{
	"west/ca/db", "west/ca/web", "west/or/db",
	"east/ny/db", "east/ny/web", "east/tx/db",
}

// newSnapshotNode builds an offline node named west/ca/db and installs a
// synthetic routing state of peerCount distinct peers spread over
// snapshotDomains: every peer becomes a finger, and each level's successor
// list / predecessor is filled from the peers inside that level's domain.
func newSnapshotNode(tb testing.TB, peerCount int, seed int64) *Node {
	tb.Helper()
	return newSnapshotNodeGeom(tb, peerCount, seed, "")
}

// newSnapshotNodeGeom is newSnapshotNode with the routing geometry chosen.
// Cacophony nodes additionally get synthetic 1-lookahead facts for half the
// peers, so the scorer's look-based branch is exercised, not just its
// degraded no-exchange path.
func newSnapshotNodeGeom(tb testing.TB, peerCount int, seed int64, geometry string) *Node {
	tb.Helper()
	bus := transport.NewBus()
	n, err := New(Config{Name: "west/ca/db", ID: 1, Transport: bus.Endpoint("snap-self"), Geometry: geometry})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	peers := syntheticPeers(rng, peerCount)
	n.mu.Lock()
	installPeers(n, peers)
	if geometry == GeometryCacophony {
		n.looks = make(map[lookKey]uint64, len(peers))
		for l := 0; l <= n.levels; l++ {
			for i, p := range peers {
				if i%2 == 0 {
					n.looks[lookKey{addr: p.Addr, level: l}] = uint64(rng.Uint32())
				}
			}
		}
	}
	n.publishRoutingLocked()
	n.mu.Unlock()
	return n
}

// syntheticPeers draws peers with distinct IDs and addresses across the
// domain pool. IDs are distinct so distance ties (whose ordering differs
// between the ascending-scan snapshot and the reference sort) cannot occur.
func syntheticPeers(rng *rand.Rand, count int) []Info {
	used := map[uint64]bool{1: true} // the node's own ID
	peers := make([]Info, 0, count)
	for i := 0; len(peers) < count; i++ {
		pid := uint64(rng.Uint32())
		if used[pid] {
			continue
		}
		used[pid] = true
		peers = append(peers, Info{
			ID:   pid,
			Name: snapshotDomains[len(peers)%len(snapshotDomains)],
			Addr: fmt.Sprintf("snap-peer-%d", len(peers)),
		})
	}
	return peers
}

// installPeers fills the node's mutable routing tables from the peer set.
// Caller holds n.mu.
func installPeers(n *Node, peers []Info) {
	n.fingers = make(map[uint64]Info, len(peers))
	for _, p := range peers {
		n.fingers[p.ID] = p
	}
	for l := 0; l <= n.levels; l++ {
		prefix := prefixAt(n.self.Name, l)
		var in []Info
		for _, p := range peers {
			if inDomain(p.Name, prefix) {
				in = append(in, p)
			}
		}
		sort.Slice(in, func(i, j int) bool {
			return n.clockwise(n.self.ID, in[i].ID) < n.clockwise(n.self.ID, in[j].ID)
		})
		if len(in) == 0 {
			n.succs[l] = []Info{n.self}
			n.preds[l] = n.self
			continue
		}
		n.succs[l] = capList(append([]Info(nil), in...), n.cfg.SuccessorListLen)
		n.preds[l] = in[len(in)-1]
	}
}

// lockedForwardSet is the pre-snapshot forwarding decision, preserved as the
// equivalence reference: candidates() under the node
// mutex, per-candidate canonAdmissible (another mutex acquisition each), a
// sort, and the same health partition forwardSet performs. Its output
// contract matches forwardSet exactly.
func (n *Node) lockedForwardSet(key uint64, prefix string, dst []viewCandidate) (cnt int, bestAddr string, routedAround bool) {
	rem := n.clockwise(n.self.ID, key)
	if rem == 0 {
		return 0, "", false
	}
	cands := n.candidates(prefix)
	adv := make([]viewCandidate, 0, len(cands))
	for _, c := range cands {
		d := n.clockwise(n.self.ID, c.ID)
		if d == 0 || d > rem || !n.canonAdmissible(c) {
			continue
		}
		adv = append(adv, viewCandidate{info: c, dist: d, level: sharedLevels(n.self.Name, c.Name), admissible: true})
	}
	sort.Slice(adv, func(i, j int) bool {
		if adv[i].dist != adv[j].dist {
			return adv[i].dist > adv[j].dist
		}
		// forwardSet walks its ascending (dist, addr) order backwards, so
		// equal distances come out address-descending.
		return adv[i].info.Addr > adv[j].info.Addr
	})
	var spare [forwardAttemptLimit]viewCandidate
	nSpare := 0
	sawBest := false
	bestDemoted := false
	for _, c := range adv {
		if cnt >= len(dst) {
			break
		}
		pref := n.health.preferred(c.info.Addr)
		if !sawBest {
			sawBest = true
			bestAddr = c.info.Addr
			bestDemoted = !pref
		}
		if pref {
			dst[cnt] = c
			cnt++
		} else if nSpare < len(spare) {
			spare[nSpare] = c
			nSpare++
		}
	}
	routedAround = bestDemoted && cnt > 0
	for i := 0; i < nSpare && cnt < len(dst); i++ {
		dst[cnt] = spare[i]
		cnt++
	}
	return cnt, bestAddr, routedAround
}

// TestForwardSetMatchesLockedReference drives the snapshot decision and the
// mutex-held reference over the same states and keys and requires identical
// answers: same candidates in the same order, same best address. It also
// checks every precomputed admissibility verdict against canonAdmissible —
// the Section 2.2 link-retention rule must not drift between the two
// implementations.
func TestForwardSetMatchesLockedReference(t *testing.T) {
	for _, peers := range []int{0, 1, 5, 24, 64} {
		n := newSnapshotNode(t, peers, int64(100+peers))
		v := n.routing.Load()
		rng := rand.New(rand.NewSource(int64(peers)))
		for trial := 0; trial < 200; trial++ {
			key := uint64(rng.Uint32())
			for l := 0; l <= n.levels; l++ {
				prefix := prefixAt(n.self.Name, l)
				level, ok := v.levelOf(prefix)
				if !ok || level != l {
					t.Fatalf("levelOf(%q) = %d, %v; want %d, true", prefix, level, ok, l)
				}
				var got, want [forwardAttemptLimit]viewCandidate
				gn, gBest, _ := v.forwardSet(n.health, key, l, got[:])
				wn, wBest, _ := n.lockedForwardSet(key, prefix, want[:])
				if gn != wn || gBest != wBest {
					t.Fatalf("peers=%d key=%d level=%d: snapshot (n=%d best=%q) != locked (n=%d best=%q)",
						peers, key, l, gn, gBest, wn, wBest)
				}
				for i := 0; i < gn; i++ {
					if got[i].info.Addr != want[i].info.Addr || got[i].dist != want[i].dist || got[i].level != want[i].level {
						t.Fatalf("peers=%d key=%d level=%d cand %d: snapshot %+v != locked %+v",
							peers, key, l, i, got[i], want[i])
					}
				}
			}
		}
		// Per-candidate admissibility equivalence over the whole view.
		for l := 0; l <= n.levels; l++ {
			for _, c := range v.cands[l] {
				if c.admissible != n.canonAdmissible(c.info) {
					t.Fatalf("admissibility drift for %s at level %d: view=%v reference=%v",
						c.info.Addr, l, c.admissible, n.canonAdmissible(c.info))
				}
			}
		}
		n.Close()
	}
}

// scoredReferenceForwardSet is a naive O(n log n) re-implementation of the
// scored forwarding decision — filter the advance-without-overshoot window,
// rank everything by rankedBefore with a full sort, partition by health —
// kept as the equivalence reference for forwardSet's single-pass
// fixed-buffer insertion sort.
func scoredReferenceForwardSet(n *Node, v *routingView, key uint64, l int, dst []viewCandidate) (cnt int, bestAddr string, routedAround bool) {
	rem := n.clockwise(n.self.ID, key)
	if rem == 0 {
		return 0, "", false
	}
	type scored struct {
		c viewCandidate
		s uint64
	}
	var all []scored
	for i, c := range v.cands[l] {
		if c.dist == 0 || c.dist > rem || !c.admissible {
			continue
		}
		all = append(all, scored{c: c, s: v.scoreCandidate(c, v.looks[l][i], key, rem)})
	}
	sort.Slice(all, func(i, j int) bool { return v.rankedBefore(all[i].s, all[i].c, all[j].s, all[j].c) })
	if len(all) == 0 {
		return 0, "", false
	}
	bestAddr = all[0].c.info.Addr
	var prefs, spares []viewCandidate
	for _, sc := range all {
		if n.health.preferred(sc.c.info.Addr) {
			prefs = append(prefs, sc.c)
		} else {
			spares = append(spares, sc.c)
		}
	}
	for _, c := range prefs {
		if cnt >= len(dst) {
			break
		}
		dst[cnt] = c
		cnt++
	}
	routedAround = !n.health.preferred(bestAddr) && cnt > 0
	for _, c := range spares {
		if cnt >= len(dst) {
			break
		}
		dst[cnt] = c
		cnt++
	}
	return cnt, bestAddr, routedAround
}

// TestScoredForwardSetMatchesReference drives the scored forwarding decision
// (Crescendo's maximal advance, Kandy's XOR ranking, Cacophony's
// 1-lookahead ranking) and the naive
// sort-everything reference over the same states and keys — with a batch of
// peers marked failing so both health classes are populated — and requires
// identical answers: same candidates in the same order, same best address,
// same route-around verdict.
func TestScoredForwardSetMatchesReference(t *testing.T) {
	for _, geom := range snapshotGeometries {
		t.Run(geom, func(t *testing.T) {
			for _, peers := range []int{0, 1, 5, 24, 64} {
				n := newSnapshotNodeGeom(t, peers, int64(300+peers), geom)
				v := n.routing.Load()
				// Distrust a third of the peers so preferred/spare
				// partitioning differs from the all-healthy trivial case.
				for i, c := range v.cands[0] {
					if i%3 == 0 {
						for k := 0; k < 8; k++ {
							n.health.recordFailure(c.info.Addr)
						}
					}
				}
				rng := rand.New(rand.NewSource(int64(peers)))
				for trial := 0; trial < 200; trial++ {
					key := uint64(rng.Uint32())
					for l := 0; l <= n.levels; l++ {
						var got, want [forwardAttemptLimit]viewCandidate
						gn, gBest, gAround := v.forwardSet(n.health, key, l, got[:])
						wn, wBest, wAround := scoredReferenceForwardSet(n, v, key, l, want[:])
						if gn != wn || gBest != wBest || gAround != wAround {
							t.Fatalf("%s peers=%d key=%d level=%d: scored (n=%d best=%q around=%v) != reference (n=%d best=%q around=%v)",
								geom, peers, key, l, gn, gBest, gAround, wn, wBest, wAround)
						}
						for i := 0; i < gn; i++ {
							if got[i].info.Addr != want[i].info.Addr {
								t.Fatalf("%s peers=%d key=%d level=%d cand %d: scored %+v != reference %+v",
									geom, peers, key, l, i, got[i], want[i])
							}
						}
					}
				}
				n.Close()
			}
		})
	}
}

// forwardSink keeps the compiler from eliding benchmark/alloc-test work.
var forwardSink atomic.Uint64

// snapshotGeometries enumerates every routing geometry for the hot-path
// regression tests: the zero-alloc and mutex-free guarantees and the
// scored-reference equivalence must hold under every geometry's ranking.
var snapshotGeometries = []string{GeometryCrescendo, GeometryKandy, GeometryCacophony}

// TestForwardDecisionZeroAllocs pins the hot-path guarantee for every
// geometry: a complete forwarding decision — snapshot load, prefix-to-level
// resolution, candidate selection with health consultation, scored ranking
// where the geometry uses one — performs zero heap allocations.
func TestForwardDecisionZeroAllocs(t *testing.T) {
	for _, geom := range snapshotGeometries {
		t.Run(geom, func(t *testing.T) {
			n := newSnapshotNodeGeom(t, 48, 7, geom)
			defer n.Close()
			mask := n.space.Size() - 1
			var x uint64 = 0x9e3779b97f4a7c15
			allocs := testing.AllocsPerRun(500, func() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				v := n.routing.Load()
				level, ok := v.levelOf("west/ca")
				if !ok {
					panic("levelOf failed")
				}
				var order [forwardAttemptLimit]viewCandidate
				cnt, _, _ := v.forwardSet(n.health, x&mask, level, order[:])
				forwardSink.Add(uint64(cnt))
			})
			if allocs != 0 {
				t.Fatalf("%s forwarding decision allocates %.1f objects per run, want 0", geom, allocs)
			}
		})
	}
}

// TestForwardDecisionMutexFree hammers the forwarding decision of every
// geometry from 64 goroutines with mutex profiling at full rate and then
// requires that no mutex-contention sample traces through the hot path.
// Uncontended locks do not appear in the mutex profile, so the 64-way
// hammering is the point: any mutex on this path would contend and show up.
func TestForwardDecisionMutexFree(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)
	for _, geom := range snapshotGeometries {
		t.Run(geom, func(t *testing.T) {
			n := newSnapshotNodeGeom(t, 48, 11, geom)
			defer n.Close()
			before := forwardPathMutexSamples(t)

			mask := n.space.Size() - 1
			var wg sync.WaitGroup
			for g := 0; g < 64; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					x := uint64(g)*0x9e3779b97f4a7c15 + 1
					var order [forwardAttemptLimit]viewCandidate
					local := 0
					for i := 0; i < 20000; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						v := n.routing.Load()
						level, _ := v.levelOf("west/ca/db")
						cnt, _, _ := v.forwardSet(n.health, x&mask, level, order[:])
						local += cnt
					}
					forwardSink.Add(uint64(local))
				}(g)
			}
			wg.Wait()

			if after := forwardPathMutexSamples(t); after > before {
				t.Fatalf("%s forwarding hot path acquired contended mutexes: %d new mutex-profile samples", geom, after-before)
			}
		})
	}
}

// forwardPathMutexSamples counts mutex-profile samples whose stacks pass
// through the lock-free forwarding primitives.
func forwardPathMutexSamples(t *testing.T) int {
	t.Helper()
	var recs []runtime.BlockProfileRecord
	for {
		nrec, ok := runtime.MutexProfile(recs)
		if ok {
			recs = recs[:nrec]
			break
		}
		recs = make([]runtime.BlockProfileRecord, nrec+64)
	}
	count := 0
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			fr, more := frames.Next()
			switch fr.Function {
			case "github.com/canon-dht/canon/internal/netnode.(*routingView).forwardSet",
				"github.com/canon-dht/canon/internal/netnode.(*routingView).scoreCandidate",
				"github.com/canon-dht/canon/internal/netnode.(*routingView).rankedBefore",
				"github.com/canon-dht/canon/internal/netnode.(*routingView).insertRanked",
				"github.com/canon-dht/canon/internal/netnode.(*routingView).levelOf",
				"github.com/canon-dht/canon/internal/netnode.(*healthTracker).preferred",
				"github.com/canon-dht/canon/internal/netnode.(*healthTracker).lookup":
				count++
			}
			if !more {
				break
			}
		}
	}
	return count
}

// TestSnapshotNotTornUnderPublishStorm publishes new views from multiple
// mutator goroutines while readers continuously load: every observed view
// must be complete (epoch == epochSeal — the builder's first and last writes
// agree, so no partially built view ever escaped) and per-reader epochs must
// never go backwards.
func TestSnapshotNotTornUnderPublishStorm(t *testing.T) {
	n := newSnapshotNode(t, 32, 3)
	defer n.Close()
	rng := rand.New(rand.NewSource(5))
	extra := syntheticPeers(rng, 96)

	done := make(chan struct{})
	var readers, mutators sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				v := n.routing.Load()
				if v.epoch != v.epochSeal {
					t.Errorf("torn view: epoch %d != seal %d", v.epoch, v.epochSeal)
					return
				}
				if v.epoch < last {
					t.Errorf("epoch went backwards: %d after %d", v.epoch, last)
					return
				}
				last = v.epoch
				for l := 0; l <= v.levels; l++ {
					if v.prefixes[l] != prefixAt(v.self.Name, l) {
						t.Errorf("view prefix[%d] = %q, inconsistent with self %q", l, v.prefixes[l], v.self.Name)
						return
					}
				}
			}
		}()
	}
	for m := 0; m < 4; m++ {
		mutators.Add(1)
		go func(m int) {
			defer mutators.Done()
			for i := 0; i < 300; i++ {
				peers := extra[(m*17+i)%64 : (m*17+i)%64+32]
				n.mu.Lock()
				installPeers(n, peers)
				n.publishRoutingLocked()
				n.mu.Unlock()
			}
		}(m)
	}
	mutators.Wait()
	close(done)
	readers.Wait()

	if v := n.routing.Load(); v.epoch != v.epochSeal {
		t.Fatalf("final view torn: epoch %d != seal %d", v.epoch, v.epochSeal)
	}
}

// TestSnapshotConsistencyUnderChurn is the live version of the torn-view
// test: a real cluster serves concurrent lookups while nodes join and leave,
// and a reader on every stable node checks each loaded view for completeness
// and epoch monotonicity. This is the regression test for the whole epoch
// design — it fails if any mutation path forgets to republish atomically or
// mutates a published view in place.
func TestSnapshotConsistencyUnderChurn(t *testing.T) {
	bus := transport.NewBus()
	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()

	var stable []*Node
	for i := 0; i < 6; i++ {
		n, err := New(Config{
			Name: snapshotDomains[i%len(snapshotDomains)], RandomID: true, Rand: rng,
			Transport: bus.Endpoint(fmt.Sprintf("churn-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		contact := ""
		if i > 0 {
			contact = stable[0].self.Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		stable = append(stable, n)
	}
	defer func() {
		for _, n := range stable {
			n.Close()
		}
	}()
	for r := 0; r < 4; r++ {
		for _, n := range stable {
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, n := range stable {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			var last uint64
			var x uint64 = 0xdeadbeef
			for {
				select {
				case <-done:
					return
				default:
				}
				v := n.routing.Load()
				if v.epoch != v.epochSeal {
					t.Errorf("%s: torn view: epoch %d != seal %d", n.self.Addr, v.epoch, v.epochSeal)
					return
				}
				if v.epoch < last {
					t.Errorf("%s: epoch went backwards: %d after %d", n.self.Addr, v.epoch, last)
					return
				}
				last = v.epoch
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				if _, err := n.Lookup(ctx, x&(n.space.Size()-1), ""); err != nil {
					t.Errorf("%s: lookup during churn: %v", n.self.Addr, err)
					return
				}
			}
		}(n)
	}

	// The churn burst: transient nodes join through random stable nodes,
	// stabilization interleaves, then they all leave.
	for round := 0; round < 3; round++ {
		var transient []*Node
		for i := 0; i < 4; i++ {
			n, err := New(Config{
				Name: snapshotDomains[(round+i)%len(snapshotDomains)], RandomID: true, Rand: rng,
				Transport: bus.Endpoint(fmt.Sprintf("churn-t%d-%d", round, i)),
			})
			if err != nil {
				t.Error(err)
				break
			}
			if err := n.Join(ctx, stable[(round+i)%len(stable)].self.Addr); err != nil {
				t.Errorf("transient join: %v", err)
				n.Close()
				break
			}
			transient = append(transient, n)
		}
		for _, n := range stable {
			n.StabilizeOnce(ctx)
		}
		for _, n := range transient {
			n.StabilizeOnce(ctx)
		}
		for _, n := range transient {
			if err := n.Leave(ctx); err != nil {
				t.Errorf("leave: %v", err)
			}
		}
		for _, n := range stable {
			n.StabilizeOnce(ctx)
		}
	}
	close(done)
	wg.Wait()
}

// snapshotBenchParallelism spreads 64 concurrent decision streams across
// RunParallel's GOMAXPROCS-multiplied goroutines.
func snapshotBenchParallelism() int {
	p := 64 / runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// BenchmarkForwardDecision64Snapshot measures the lock-free forwarding
// decision under 64-way concurrency, once per geometry: one atomic snapshot
// load, prefix resolution, and candidate selection per iteration. This is the
// hot path of every forwarded lookup hop. CI's bench-gate requires every
// geometry's allocs/op to stay at zero (TestForwardDecisionZeroAllocs asserts
// the same per geometry in tier-1).
func BenchmarkForwardDecision64Snapshot(b *testing.B) {
	for _, geom := range snapshotGeometries {
		b.Run(geom, func(b *testing.B) {
			n := newSnapshotNodeGeom(b, 48, 7, geom)
			defer n.Close()
			mask := n.space.Size() - 1
			var seed atomic.Uint64
			b.ReportAllocs()
			b.SetParallelism(snapshotBenchParallelism())
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := seed.Add(0x9e3779b97f4a7c15)
				var order [forwardAttemptLimit]viewCandidate
				local := 0
				for pb.Next() {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					v := n.routing.Load()
					level, _ := v.levelOf("west/ca")
					cnt, _, _ := v.forwardSet(n.health, x&mask, level, order[:])
					local += cnt
				}
				forwardSink.Add(uint64(local))
			})
		})
	}
}
