// Command canonblast is the repository's benchmark: it boots an 8-process
// canond cluster on loopback TCP, drives it from one process through one
// transport.TCP and one netnode.Client, verifies every answer, and prints
// every metric named in BENCHMARK.json with its unit. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	pass        string
	repeat      int
	canond      string
	out         string
	injectWrong bool
}

// runs reports whether a per-layer run includes the named pass.
func (c config) runs(pass string) bool { return c.pass == "" || c.pass == pass }

const (
	closedClients = 2 // = nproc on the reference box: a DHT caller waits for its reply
	setupRounds   = 3 // set-ups (boot, readiness, preload) per end-to-end run; setup_s is their median
	// The measured window is cut into slices of about this length, and each
	// timed metric is the mean over the better half of the slice values. The
	// neighbours on the shared host come and go within seconds and only ever
	// slow a slice down, so the better half is the half that measured the
	// program.
	sliceTarget = time.Second
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (empty = all): lookup_hier, put_durable, kv_mix_mem, kv_replicated")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the op stream derives from it (the cluster and the key universe are fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", 22, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0 = end-to-end metrics (closed pass, tracing off); 1 = per-layer metrics (closed, open, traced passes)")
	flag.StringVar(&cfg.pass, "pass", "", "with -trace 1, run only this pass: closed, open or traced (the result line then lacks the other passes' metrics)")
	flag.IntVar(&cfg.repeat, "repeat", 0, "run the end-to-end set N times with seeds seed..seed+N-1 and print each metric's spread against its bound")
	flag.StringVar(&cfg.canond, "canond", filepath.Join(".bench_build", "canond"), "canond binary (bench/run.sh builds it)")
	flag.StringVar(&cfg.out, "out", filepath.Join("bench", "out"), "directory for trace files")
	flag.BoolVar(&cfg.injectWrong, "inject-wrong", false, "verifier self-test: make one expected answer wrong; the run must exit non-zero")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "canonblast:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	if _, err := os.Stat(cfg.canond); err != nil {
		return fmt.Errorf("canond binary: %w (run the benchmark through bench/run.sh, which builds it)", err)
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	switch cfg.pass {
	case "", "closed", "open", "traced":
	default:
		return fmt.Errorf("unknown pass %q", cfg.pass)
	}
	ws := workloads
	if cfg.workload != "" {
		w, err := workloadByName(cfg.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if cfg.repeat > 0 {
		return repeat(ctx, cfg, ws)
	}
	incorrect := false
	for _, w := range ws {
		res, err := runOne(ctx, cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.print(); err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errors.New("wrong or failed answers; see first_error above")
	}
	return nil
}

// result is one run of one workload.
type result struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Mode        string             `json:"mode"`
	Environment environment        `json:"environment"`
	PassSeconds map[string]float64 `json:"pass_seconds"`
	Samples     map[string]int     `json:"samples"`
	// Slices holds the closed pass's per-slice values, in time order; the
	// end-to-end metrics are the means over their better halves.
	Slices map[string][]float64 `json:"slices,omitempty"`
	Notes  []string             `json:"notes,omitempty"`
	// SumGapPct is the traced pass's worst case, over the ops, of how far
	// client self + transport wire + netnode serve self + canonstore time
	// is from the op's duration, in percent of it. AmbiguousStorePct is the
	// share of store spans whose serve span had to be guessed, which blurs
	// the line between netnode serve self and canonstore time by as much.
	SumGapPct         float64   `json:"traced_sum_gap_pct"`
	AmbiguousStorePct float64   `json:"traced_ambiguous_store_pct"`
	FirstError        string    `json:"first_error,omitempty"`
	Correct           bool      `json:"correct"`
	Attempted         int64     `json:"attempted"`
	Failed            int64     `json:"failed"`
	Metrics           metricSet `json:"metrics"`
}

// print writes the full report, then — as the last line — the one object
// the benchmark contract asks for.
func (r *result) print() error {
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", full, last)
	return err
}

func runOne(ctx context.Context, cfg config, w *workload) (*result, error) {
	specs := topology()
	scratch := filepath.Dir(cfg.canond)
	res := &result{
		Workload: w.name, Why: w.why,
		Environment: readEnvironment(scratch, cfg.seed, streamHash(w, specs, cfg.seed, closedClients)),
		PassSeconds: map[string]float64{}, Samples: map[string]int{}, Metrics: metricSet{},
	}
	res.Notes = append(res.Notes,
		"traffic crosses the host's loopback interface, not a link",
		"fsync latency is this sandbox's filesystem, not a storage device's")
	var want []metricDef
	var err error
	if cfg.trace == 0 {
		res.Mode, want = "end_to_end", endToEnd
		err = runEndToEnd(ctx, cfg, w, specs, res)
	} else {
		res.Mode, want = "per_layer", perLayer()
		err = runPerLayer(ctx, cfg, w, specs, res)
	}
	if err != nil {
		return nil, err
	}
	if cfg.pass == "" {
		for _, d := range want {
			if _, ok := res.Metrics[d.name]; !ok {
				return nil, fmt.Errorf("internal: metric %s was not measured", d.name)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// session is a running process cluster and the one client driving it.
type session struct {
	pc  *procCluster
	tcp *transport.TCP
	cl  *netnode.Client
}

func bootProcs(ctx context.Context, cfg config, w *workload, specs []nodeSpec) (*session, error) {
	pc, err := startProcs(ctx, cfg.canond, filepath.Dir(cfg.canond), specs, w)
	if err != nil {
		return nil, err
	}
	tcp, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		_ = pc.close()
		return nil, err
	}
	s := &session{pc: pc, tcp: tcp, cl: netnode.NewClient(tcp)}
	if err := waitReady(ctx, s.cl, pc.ms); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() error {
	err := s.tcp.Close()
	if cerr := s.pc.close(); err == nil {
		err = cerr
	}
	return err
}

// closedStats is a closed pass cut into slices.
type closedStats struct {
	lat     []int64 // every timed op's latency, ascending
	opsPerS []float64
	p50     []float64
	p99     []float64
	cpuUS   []float64 // cluster CPU per op
}

// timedClosed runs a closed pass and, beside it, reads the cluster's CPU
// time at every slice boundary.
func timedClosed(ctx context.Context, r *runner, pc *procCluster, clients int, warm, measure time.Duration) (*closedStats, error) {
	t0 := time.Now().Add(warm)
	slices := max(1, int(measure/sliceTarget))
	sliceLen := measure / time.Duration(slices)
	var ticks []uint64
	var tickErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k <= slices; k++ {
			select {
			case <-time.After(time.Until(t0.Add(time.Duration(k) * sliceLen))):
			case <-ctx.Done():
				return
			}
			t, err := pc.cpuTicks()
			if err != nil {
				tickErr = err
				return
			}
			ticks = append(ticks, t)
		}
	}()
	samples := r.closedPass(ctx, clients, t0, t0.Add(sliceLen*time.Duration(slices)))
	<-done
	if tickErr != nil {
		return nil, tickErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := &closedStats{lat: latencies(samples)}
	perSlice := make([][]sample, slices)
	for _, s := range samples {
		k := min(int(s.end/int64(sliceLen)), slices-1)
		perSlice[k] = append(perSlice[k], s)
	}
	for k, ss := range perSlice {
		if len(ss) == 0 {
			return nil, fmt.Errorf("no op completed in slice %d of the closed pass: %s", k, r.firstErr)
		}
		lat := latencies(ss)
		st.opsPerS = append(st.opsPerS, float64(len(ss))/sliceLen.Seconds())
		st.p50 = append(st.p50, us(quantile(lat, 0.5)))
		st.p99 = append(st.p99, us(quantile(lat, 0.99)))
		st.cpuUS = append(st.cpuUS, float64(ticks[k+1]-ticks[k])*1e6/ticksPerSecond/float64(len(ss)))
	}
	return st, nil
}

// verify runs the workload's after-the-fact checks on a process cluster:
// the sweep, and on Disk workloads kill-and-reopen. It returns the mean
// recovery time per data directory (0 on Mem).
func verify(ctx context.Context, cfg config, r *runner, s *session, res *result) (recoverMS float64, err error) {
	if r.kv == nil {
		return 0, nil
	}
	if cfg.injectWrong {
		for idx := range r.kv.keys {
			if ks := &r.kv.keys[idx]; ks.acked.Load() > 0 {
				ks.acked.Add(1)
				r.forceSweep = idx
				break
			}
		}
	}
	start := time.Now()
	r.sweep(ctx)
	res.PassSeconds["sweep"] = time.Since(start).Seconds()
	if !r.w.disk {
		return 0, ctx.Err()
	}
	s.pc.kill()
	union, rec, err := reopen(s.pc.dataDirs())
	if err != nil {
		return 0, err
	}
	r.checkRecovered(union)
	return float64(rec) / float64(time.Millisecond), ctx.Err()
}

func runEndToEnd(ctx context.Context, cfg config, w *workload, specs []nodeSpec, res *result) error {
	// Set up several times and report the median: one boot is one draw of
	// port numbers, scheduling and stabilization phase. The last cluster is
	// the one measured.
	var setups []float64
	var s *session
	var r *runner
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if s, err = bootProcs(ctx, cfg, w, specs); err != nil {
			return err
		}
		r = newRunner(w, s.pc.ms, s.cl, nil, cfg.seed)
		if w.preload {
			if err := r.preload(ctx); err != nil {
				_ = s.close()
				return err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	r.injectWrong = cfg.injectWrong
	measure := time.Duration(cfg.seconds * float64(time.Second))
	warm := min(2*time.Second, measure/5)
	st, err := timedClosed(ctx, r, s.pc, closedClients, warm, measure)
	if err != nil {
		return err
	}
	if _, err := verify(ctx, cfg, r, s, res); err != nil {
		return err
	}
	res.PassSeconds["closed_warm"] = warm.Seconds()
	res.PassSeconds["closed"] = measure.Seconds()
	res.Samples["closed"] = len(st.lat)
	res.Slices = map[string][]float64{"ops_per_s": st.opsPerS, "p50_us": st.p50, "p99_us": st.p99, "cpu_us_per_op": st.cpuUS}
	m := res.Metrics
	m.set("ops_per_s", betterHalfMean(st.opsPerS, true))
	m.set("p50_us", betterHalfMean(st.p50, false))
	m.set("p99_us", betterHalfMean(st.p99, false))
	m.set("cpu_us_per_op", betterHalfMean(st.cpuUS, false))
	m.set("setup_s", median(setups))
	res.Attempted, res.Failed, res.FirstError = r.attempted.Load(), r.failed.Load(), r.firstErr
	return nil
}

func runPerLayer(ctx context.Context, cfg config, w *workload, specs []nodeSpec, res *result) error {
	total := time.Duration(cfg.seconds * float64(time.Second))
	share := func(pct int) time.Duration { return total * time.Duration(pct) / 100 }
	m := res.Metrics
	closedP50 := 0.0
	if cfg.runs("closed") || cfg.runs("open") {
		p50, err := runProcPasses(ctx, cfg, w, specs, res, share(13), share(27), share(27))
		if err != nil {
			return err
		}
		closedP50 = p50
	}
	if cfg.runs("traced") {
		inprocP50, err := runTraced(ctx, cfg, w, specs, res, share(13), share(20))
		if err != nil {
			return err
		}
		if closedP50 > 0 {
			m.set("client.process_gap_pct", 100*(closedP50-inprocP50)/closedP50)
		}
		rtt, err := echoRTT(ctx)
		if err != nil {
			return err
		}
		m.set("transport.echo_rtt_us", rtt)
		inc, obs := telemetryCosts()
		m.set("telemetry.counter_inc_ns", inc)
		m.set("telemetry.histogram_observe_ns", obs)
	}
	return nil
}

// runProcPasses is the per-layer run's share of work on the process
// cluster: the idle window, a short closed pass, the open pass and the
// after-the-fact checks. It returns the closed pass's p50 in µs.
func runProcPasses(ctx context.Context, cfg config, w *workload, specs []nodeSpec, res *result, idle, closed, open time.Duration) (float64, error) {
	s, err := bootProcs(ctx, cfg, w, specs)
	if err != nil {
		return 0, err
	}
	defer s.close()
	m := res.Metrics
	r := newRunner(w, s.pc.ms, s.cl, nil, cfg.seed)
	r.injectWrong = cfg.injectWrong

	before, err := s.pc.cpuTicks()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	select {
	case <-time.After(idle):
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	after, err := s.pc.cpuTicks()
	if err != nil {
		return 0, err
	}
	m.set("canond.idle_cpu_pct", 100*float64(after-before)/ticksPerSecond/time.Since(start).Seconds())
	res.PassSeconds["idle"] = idle.Seconds()

	if w.preload {
		if err := r.preload(ctx); err != nil {
			return 0, err
		}
	}
	closedP50 := 0.0
	if cfg.runs("closed") {
		warm := closed / 4
		st, err := timedClosed(ctx, r, s.pc, closedClients, warm, closed-warm)
		if err != nil {
			return 0, err
		}
		closedP50 = us(quantile(st.lat, 0.5))
		m.set("client.p999_us", us(quantile(st.lat, 0.999)))
		res.PassSeconds["closed"] = (closed - warm).Seconds()
		res.Samples["closed"] = len(st.lat)
		if q, ok := tailQuantile(len(st.lat)); !ok || q < 0.999 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"client.p999_us rests on %d samples, fewer than ten beyond it; the sample speaks for p%g at most", len(st.lat), 100*q))
		}
	}
	if cfg.runs("open") {
		or := r.openPass(ctx, w.openRate, open)
		m.set("client.open_p50_us", us(quantile(or.lat, 0.5)))
		m.set("client.open_p99_us", us(quantile(or.lat, 0.99)))
		m.set("client.open_achieved_ratio", ratio(float64(len(or.lat)), float64(or.scheduled)))
		m.set("client.open_sched_lag_p99_us", us(quantile(or.lag, 0.99)))
		res.PassSeconds["open"] = open.Seconds()
		res.Samples["open"] = len(or.lat)
	}
	m.set("canond.rss_mb", s.pc.rssMB())
	recoverMS, err := verify(ctx, cfg, r, s, res)
	if err != nil {
		return 0, err
	}
	m.set("canonstore.recover_ms", recoverMS)
	m.set("client.stale_read_ratio", ratio(float64(r.stale.Load()), float64(r.gets.Load())))
	m.set("fail_ratio", ratio(float64(r.failed.Load()), float64(r.attempted.Load())))
	res.Attempted += r.attempted.Load()
	res.Failed += r.failed.Load()
	if res.FirstError == "" {
		res.FirstError = r.firstErr
	}
	return closedP50, nil
}

// runTraced replays the workload on the in-process cluster with one
// client: first with the span decorators off, then on. It returns the
// decorators-off p50 in µs.
func runTraced(ctx context.Context, cfg config, w *workload, specs []nodeSpec, res *result, off, on time.Duration) (float64, error) {
	reg := telemetry.NewRegistry()
	rec := newRecorder()
	ic, err := startInproc(ctx, filepath.Dir(cfg.canond), specs, w, reg, rec)
	if err != nil {
		return 0, err
	}
	defer ic.close()
	tcp, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{Telemetry: reg})
	if err != nil {
		return 0, err
	}
	defer tcp.Close()
	cl := netnode.NewClient(&tracedTransport{Transport: transport.WithTelemetry(tcp, reg), rec: rec})
	if err := waitReady(ctx, cl, ic.ms); err != nil {
		return 0, err
	}
	r := newRunner(w, ic.ms, cl, rec, cfg.seed)
	if w.preload {
		if err := r.preload(ctx); err != nil {
			return 0, err
		}
	}
	warm := off / 4
	t0 := time.Now().Add(warm)
	offLat := latencies(r.closedPass(ctx, 1, t0, t0.Add(off-warm)))

	before := readCounts(reg)
	rec.on.Store(true)
	start := time.Now()
	onLat := latencies(r.closedPass(ctx, 1, start, start.Add(on)))
	window := time.Since(start)
	rec.on.Store(false)
	delta := readCounts(reg).sub(before)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(offLat) == 0 || len(onLat) == 0 {
		return 0, fmt.Errorf("traced pass completed no op: %s", r.firstErr)
	}

	rec.mu.Lock()
	spans := rec.spans
	rec.spans = nil
	rec.mu.Unlock()
	link(spans)
	self := selfTimes(spans)
	a := attribute(spans, self)
	m := res.Metrics
	tracedMetrics(m, a, delta, window, rec.valueBytes.Load())
	offP50, onP50 := us(quantile(offLat, 0.5)), us(quantile(onLat, 0.5))
	m.set("client.inproc_p50_us", offP50)
	m.set("client.trace_overhead_pct", 100*(onP50-offP50)/offP50)

	rec.capMu.Lock()
	captured := rec.captured
	rec.capMu.Unlock()
	bytesPerMsg, enc, dec := envelopeCosts(captured)
	m.set("transport.envelope_bytes_per_call", 2*bytesPerMsg) // one request and one response
	m.set("transport.envelope_encode_ns", enc)
	m.set("transport.envelope_decode_ns", dec)

	var entries []canonstore.Entry
	for _, st := range ic.stores {
		var mine []canonstore.Entry
		st.ForEach(func(e canonstore.Entry) bool {
			mine = append(mine, e)
			return true
		})
		if len(mine) > len(entries) {
			entries = mine
		}
	}
	m.set("canonstore.merkle_build_us", merkleBuild(entries))

	res.PassSeconds["traced_off"] = (off - warm).Seconds()
	res.PassSeconds["traced_on"] = on.Seconds()
	res.Samples["traced_off"] = len(offLat)
	res.Samples["traced_on"] = len(onLat)
	res.Samples["spans"] = len(spans)
	res.SumGapPct = 100 * a.maxSumGap
	var storeSpans int
	for _, n := range a.storeCount {
		storeSpans += n
	}
	res.AmbiguousStorePct = 100 * ratio(float64(a.ambiguous), float64(storeSpans))
	res.Attempted += r.attempted.Load()
	res.Failed += r.failed.Load()
	if res.FirstError == "" {
		res.FirstError = r.firstErr
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return 0, err
	}
	return offP50, writeTrace(filepath.Join(cfg.out, "trace-"+w.name+".json"), spans, self)
}

// repeat runs the end-to-end set n times, each time with the next seed,
// and prints every metric's spread against the bound BENCHMARK.json gives
// it. Spread is the interquartile range as a share of the median, the
// measure the benchmark is accepted on.
func repeat(ctx context.Context, cfg config, ws []*workload) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg.trace, cfg.pass = 0, ""
	outside := false
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < cfg.repeat; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runOne(ctx, c, w)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed: %s", w.name, c.seed, res.Failed, res.Attempted, res.FirstError)
			}
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d:", w.name, c.seed)
			for _, d := range endToEnd {
				fmt.Fprintf(os.Stderr, " %s %.3f", d.name, res.Metrics[d.name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, d := range endToEnd {
			name := d.name
			v := values[name]
			sort.Float64s(v)
			med := median(v)
			iqr, pair := ratio(quartileRange(v), med), ratio(v[len(v)-1]-v[0], med)
			flag := ""
			if iqr > bounds[name] {
				flag, outside = "  SPREAD OUTSIDE BOUND", true
			} else if pair > bounds[name] {
				flag = "  (a pair of runs differs by more than the bound)"
			}
			fmt.Printf("%-14s %-14s min %10.3f  median %10.3f  max %10.3f %-6s iqr/median %6.2f%%  max-min/median %6.2f%%  bound %4.1f%%%s\n",
				w.name, name, v[0], med, v[len(v)-1], d.unit, 100*iqr, 100*pair, 100*bounds[name], flag)
		}
	}
	if outside {
		return errors.New("a metric's run-to-run spread exceeds its bound")
	}
	return nil
}

// quartileRange is the distance between the first and third quartile of an
// ascending slice, by the exclusive method Python's statistics.quantiles
// uses by default.
func quartileRange(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := min(max(int(h), 1), n-1)
		return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
	}
	return at(0.75) - at(0.25)
}

func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading bounds: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, e := range doc.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	for _, d := range endToEnd {
		if _, ok := bounds[d.name]; !ok {
			return nil, fmt.Errorf("%s gives no bound for %s", path, d.name)
		}
	}
	return bounds, nil
}
