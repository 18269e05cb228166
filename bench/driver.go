package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/netnode"
)

// runner executes and verifies ops against one cluster through one client.
type runner struct {
	w    *workload
	ms   []member
	cl   *netnode.Client
	kv   *kvState         // nil on lookup_hier
	in   map[string][]int // key class → the members inside that domain
	rec  *recorder        // non-nil on the in-process cluster
	seed int64

	// injectWrong makes the verifier expect a wrong owner for one lookup in
	// 64; forceSweep (-1 = none) is a key index the sweep must include. Both
	// serve -inject-wrong, the proof that a wrong answer fails the run.
	injectWrong bool
	forceSweep  int

	attempted atomic.Int64
	failed    atomic.Int64
	gets      atomic.Int64
	stale     atomic.Int64 // gets that returned an older acked version

	errMu    sync.Mutex
	firstErr string
}

func newRunner(w *workload, ms []member, cl *netnode.Client, rec *recorder, seed int64) *runner {
	r := &runner{w: w, ms: ms, cl: cl, rec: rec, seed: seed, forceSweep: -1}
	if w.keys > 0 {
		r.kv = newKVState(w)
		r.in = map[string][]int{}
		for _, class := range []string{"", "west", "east"} {
			r.in[class] = membersIn(ms, class)
		}
	}
	return r
}

func (r *runner) fail(format string, args ...any) bool {
	r.failed.Add(1)
	r.errMu.Lock()
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
	r.errMu.Unlock()
	return false
}

// do runs one op and checks its answer; false means it failed, timed out or
// answered wrongly.
func (r *runner) do(ctx context.Context, o op) bool {
	r.attempted.Add(1)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if o.kind == opLookup {
		got, _, err := r.cl.Lookup(ctx, r.ms[o.entry].Addr, o.key, o.prefix)
		if err != nil {
			return r.fail("lookup %d in %q via node %d: %v", o.key, o.prefix, o.entry, err)
		}
		want, _ := owner(r.ms, o.key, o.prefix)
		if r.injectWrong && o.key%64 == 0 {
			want.ID++
		}
		if got.ID != want.ID {
			return r.fail("lookup %d in %q via node %d: owner %d, want %d", o.key, o.prefix, o.entry, got.ID, want.ID)
		}
		return true
	}
	idx := r.kv.acquire(o.keyIdx)
	defer r.kv.release(idx)
	in := r.in[r.kv.class(idx)]
	return r.kvOp(ctx, o.kind, idx, in[int(o.draw)%len(in)])
}

// kvOp runs a put or a get of key idx through the given entry node. The
// caller holds the key.
func (r *runner) kvOp(ctx context.Context, kind opKind, idx, entry int) bool {
	ks := &r.kv.keys[idx]
	key, class := r.kv.keyID(idx), r.kv.class(idx)
	acked := ks.acked.Load()
	if kind == opPut {
		ver := acked + 1
		if err := r.cl.Put(ctx, r.ms[entry].Addr, key, value(key, ver, r.w.valueSize), class, class); err != nil {
			ks.tainted.Store(true)
			return r.fail("put key %d v%d via node %d: %v", key, ver, entry, err)
		}
		ks.acked.Store(ver)
		ks.writer.Store(int32(entry))
		return true
	}
	got, err := r.cl.Get(ctx, r.ms[entry].Addr, key)
	if err != nil {
		return r.fail("get key %d via node %d: %v", key, entry, err)
	}
	if ks.tainted.Load() {
		return true
	}
	// Without replication the owner is the only holder, so a read returns
	// the last acked value or it is wrong. With replicas, a node on the way
	// may answer from a replica that the owner refreshes only once per
	// stabilization round: any version this benchmark had acked for the key
	// is then a correct answer, and older-than-latest answers are counted.
	ver := valueVersion(key, got, r.w.valueSize)
	if ver == 0 || ver > acked || (r.w.replicas < 2 && ver != acked) {
		return r.fail("get key %d via node %d: v%d (%d bytes), last acked v%d", key, entry, ver, len(got), acked)
	}
	r.gets.Add(1)
	if ver < acked {
		r.stale.Add(1)
	}
	return true
}

// preload writes every key once, eight writers at a time.
func (r *runner) preload(ctx context.Context) error {
	const writers = 8
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(mix(uint64(r.seed), 0x9e10+uint64(wr)))))
			for idx := wr; idx < r.w.keys && ctx.Err() == nil; idx += writers {
				r.do(ctx, op{kind: opPut, keyIdx: idx, draw: rng.Uint32()})
			}
		}()
	}
	wg.Wait()
	if n := r.failed.Load(); n > 0 {
		return fmt.Errorf("preload: %d of %d puts failed: %s", n, r.w.keys, r.firstErr)
	}
	return ctx.Err()
}

// sample is one completed op of a timed pass.
type sample struct {
	end int64 // ns since the pass started measuring
	lat int64
}

// closedPass is a closed loop: each client sends its next request when the
// previous one completes, until stop. Ops completing before t0 (the warm-up)
// are run and verified but not timed. It returns the timed samples.
func (r *runner) closedPass(ctx context.Context, clients int, t0, stop time.Time) []sample {
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newOpGen(r.w, r.ms, r.seed, c, clients)
			for ctx.Err() == nil {
				o := gen.next()
				opCtx, opID := ctx, uint64(0)
				tracing := r.rec != nil && r.rec.on.Load()
				if tracing {
					opID = r.rec.nextID.Add(1)
					opCtx = withParent(ctx, opID)
				}
				start := time.Now()
				if !start.Before(stop) {
					return
				}
				ok := r.do(opCtx, o)
				end := time.Now()
				if tracing {
					r.rec.add(span{
						ID: opID, Op: opID, Kind: kindOp, Type: o.kind.String(),
						Start: int64(start.Sub(r.rec.epoch)), End: int64(end.Sub(r.rec.epoch)),
					})
				}
				if ok && !end.Before(t0) && end.Before(stop) {
					out[c] = append(out[c], sample{end: int64(end.Sub(t0)), lat: int64(end.Sub(start))})
				}
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// latencies returns the samples' latencies, ascending.
func latencies(samples []sample) []int64 {
	lat := make([]int64, len(samples))
	for i, s := range samples {
		lat[i] = s.lat
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// openResult is what an open pass measured.
type openResult struct {
	scheduled int
	lat       []int64 // from the intended send time, ascending, completed ops only
	lag       []int64 // actual minus intended send time, ascending
}

// maxInFlight bounds the open loop's goroutines: a request due while this
// many are outstanding is shed and counts as failed.
const maxInFlight = 4096

// openPass sends on a fixed schedule whatever the cluster does: one
// goroutine per due request, latency from the intended send time.
func (r *runner) openPass(ctx context.Context, rate int, dur time.Duration) openResult {
	gen := newOpGen(r.w, r.ms, r.seed+1, 0, 1)
	interval := time.Second / time.Duration(rate)
	res := openResult{scheduled: int(dur / interval)}
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, maxInFlight)
	)
	start := time.Now()
	for i := 0; i < res.scheduled && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := gen.next()
		lag := int64(time.Since(due))
		res.lag = append(res.lag, lag)
		select {
		case sem <- struct{}{}:
		default:
			r.attempted.Add(1)
			r.fail("open loop: request %d shed with %d in flight", i, maxInFlight)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := r.do(ctx, o)
			lat := int64(time.Since(due))
			<-sem
			if ok {
				mu.Lock()
				res.lat = append(res.lat, lat)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	sort.Slice(res.lag, func(i, j int) bool { return res.lag[i] < res.lag[j] })
	return res
}

// sweepLimit bounds how many written keys the sweep re-reads: a Get is up
// to seven RPCs, and the run has a time budget.
const sweepLimit = 800

// sweep re-reads a seeded sample of the written keys, each through a node
// of its access domain other than the one that wrote it, and probes scoped
// keys from outside their access domain, which must find nothing.
func (r *runner) sweep(ctx context.Context) {
	var written []int
	for idx := range r.kv.keys {
		if r.kv.keys[idx].acked.Load() > 0 && !r.kv.keys[idx].tainted.Load() {
			written = append(written, idx)
		}
	}
	rng := rand.New(rand.NewSource(int64(mix(uint64(r.seed), 0x5eeb))))
	rng.Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
	if len(written) > sweepLimit {
		written = written[:sweepLimit]
	}
	if r.forceSweep >= 0 {
		written = append([]int{r.forceSweep}, written...)
	}
	const readers = 4
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := rd; i < len(written) && ctx.Err() == nil; i += readers {
				r.sweepKey(ctx, written[i], i < 64)
			}
		}()
	}
	wg.Wait()
}

func (r *runner) sweepKey(ctx context.Context, idx int, probeOutside bool) {
	class := r.kv.class(idx)
	in := r.in[class]
	entry := in[(idx+1)%len(in)]
	if entry == int(r.kv.keys[idx].writer.Load()) {
		entry = in[(idx+2)%len(in)]
	}
	r.attempted.Add(1)
	cctx, cancel := context.WithTimeout(ctx, opTimeout)
	r.kvOp(cctx, opGet, idx, entry)
	cancel()
	if class == "" || !probeOutside {
		return
	}
	outside := -1
	for i, m := range r.ms {
		if !inDomain(m.Domain, class) {
			outside = i
			break
		}
	}
	r.attempted.Add(1)
	cctx, cancel = context.WithTimeout(ctx, opTimeout)
	_, err := r.cl.Get(cctx, r.ms[outside].Addr, r.kv.keyID(idx))
	cancel()
	if !errors.Is(err, netnode.ErrNotFound) {
		r.fail("sweep: key %d scoped to %q read from node %d outside it: %v, want not found", r.kv.keyID(idx), class, outside, err)
	}
}

// checkRecovered holds the union of the reopened data directories to the
// ground truth: every acked key at its latest value.
func (r *runner) checkRecovered(union map[uint64]canonstore.Entry) {
	for idx := range r.kv.keys {
		ks := &r.kv.keys[idx]
		acked := ks.acked.Load()
		if acked == 0 || ks.tainted.Load() {
			continue
		}
		r.attempted.Add(1)
		key := r.kv.keyID(idx)
		e, ok := union[key]
		if ver := valueVersion(key, e.Value, r.w.valueSize); !ok || ver != acked {
			r.fail("after kill and reopen: key %d holds v%d (present=%v), last acked v%d", key, ver, ok, acked)
		}
	}
}
