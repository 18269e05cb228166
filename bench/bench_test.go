package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

func TestQuantileAndSampleCountRule(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0.5, false}, {20, 0.5, true}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}} {
		if q, ok := tailQuantile(c.n); q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileRange([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("quartileRange(1..10) = %g, want 5.5", got)
	}
	// The slice estimator: the mean of the better half, the middle value
	// included, whichever way better points; one slow slice leaves it alone.
	slices := []float64{5, 1, 4, 2, 3}
	if got := betterHalfMean(slices, true); got != 4 {
		t.Errorf("betterHalfMean(higher) = %g, want 4", got)
	}
	if got := betterHalfMean(slices, false); got != 2 {
		t.Errorf("betterHalfMean(lower) = %g, want 2", got)
	}
	if got := betterHalfMean([]float64{10, 10, 10, 2}, true); got != 10 {
		t.Errorf("betterHalfMean with one slow slice = %g, want 10", got)
	}
	if betterHalfMean(nil, true) != 0 {
		t.Error("betterHalfMean of nothing must be 0")
	}
}

// handTree is one op: a client call served by node A, which forwards to node
// B, which touches its store.
//
//	op      [0,100]
//	 call   [10,90]  client → A
//	  serve [20,80]  on A
//	   call [30,70]  A → B
//	    serve [35,65] on B
//	     store [40,50] on B
func handTree() []span {
	return []span{
		{ID: 1, Op: 1, Kind: kindOp, Type: "put", Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindCall, Type: "lookup", Node: "C", Peer: "A", Nonce: "C#1", Start: 10, End: 90},
		{ID: 3, Kind: kindServe, Type: "lookup", Node: "A", Nonce: "C#1", Start: 20, End: 80},
		{ID: 4, Parent: 3, Kind: kindCall, Type: "store2", Node: "A", Peer: "B", Nonce: "A#1", Start: 30, End: 70},
		{ID: 5, Kind: kindServe, Type: "store2", Node: "B", Nonce: "A#1", Start: 35, End: 65},
		{ID: 6, Kind: kindStore, Type: "put", Node: "B", Start: 40, End: 50},
	}
}

func TestSpanSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := handTree()
	link(spans)
	for i, wantParent := range []uint64{0, 1, 2, 3, 4, 5} {
		if spans[i].Parent != wantParent {
			t.Errorf("span %d: parent %d, want %d", spans[i].ID, spans[i].Parent, wantParent)
		}
		if spans[i].Op != 1 {
			t.Errorf("span %d: op %d, want 1", spans[i].ID, spans[i].Op)
		}
	}
	self := selfTimes(spans)
	for i, want := range []int64{20, 20, 20, 10, 20, 10} {
		if self[i] != want {
			t.Errorf("span %d: self %d, want %d", spans[i].ID, self[i], want)
		}
	}
	a := attribute(spans, self)
	if len(a.ops) != 1 {
		t.Fatalf("ops = %d, want 1", len(a.ops))
	}
	if b := a.ops[0]; b != (breakdown{dur: 100, client: 20, wire: 30, serve: 40, store: 10}) {
		t.Errorf("breakdown = %+v", b)
	}
	if a.maxSumGap != 0 || a.clientRPCs != 1 || a.calls != 2 || a.lookupCall != 1 || a.lookupHops != 0 || a.replicaRPC != 1 {
		t.Errorf("attribution = %+v", a)
	}
	// Overlapping children are covered once.
	over := []span{
		{ID: 1, Kind: kindOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Kind: kindCall, Start: 10, End: 60},
		{ID: 3, Parent: 1, Kind: kindCall, Start: 40, End: 120},
	}
	if got := selfTimes(over)[0]; got != 10 {
		t.Errorf("self with overlapping children = %d, want 10", got)
	}
	// An overlapping store child keeps only the part it alone covers.
	over[1].Kind, over[2].Kind = kindStore, kindStore
	if self := selfTimes(over); self[0] != 10 || self[1] != 50 || self[2] != 40 {
		t.Errorf("self with overlapping store children = %v, want [10 50 40]", self)
	}
}

func TestCallServeNonceMatching(t *testing.T) {
	spans := []span{
		// A retried call: same nonce, same destination, two attempts; the
		// interval picks the attempt each serve belongs to.
		{ID: 1, Kind: kindCall, Node: "A", Peer: "B", Nonce: "A#7", Start: 0, End: 50},
		{ID: 2, Kind: kindCall, Node: "A", Peer: "B", Nonce: "A#7", Start: 60, End: 100},
		{ID: 3, Kind: kindServe, Node: "B", Nonce: "A#7", Start: 10, End: 40},
		{ID: 4, Kind: kindServe, Node: "B", Nonce: "A#7", Start: 70, End: 90},
		// The same nonce text served by another node is another request.
		{ID: 5, Kind: kindServe, Node: "C", Nonce: "A#7", Start: 10, End: 40},
		// A serve whose call was never recorded stays a background root.
		{ID: 6, Kind: kindServe, Node: "B", Nonce: "D#1", Start: 200, End: 210},
		// A store span outside every serve span on its node has no parent;
		// inside several, it takes the one whose handler calls the store.
		{ID: 7, Kind: kindStore, Node: "B", Start: 300, End: 310},
		{ID: 8, Kind: kindServe, Type: "store", Node: "B", Nonce: "E#1", Start: 400, End: 500},
		{ID: 9, Kind: kindServe, Type: "lookup", Node: "B", Nonce: "E#2", Start: 410, End: 490},
		{ID: 10, Kind: kindStore, Type: "put", Node: "B", Start: 420, End: 430},
		// Two store handlers overlapping: the innermost is a guess, and marked.
		{ID: 11, Kind: kindServe, Type: "store2", Node: "B", Nonce: "E#3", Start: 440, End: 480},
		{ID: 12, Kind: kindStore, Type: "sync", Node: "B", Start: 450, End: 470},
	}
	link(spans)
	for id, want := range map[uint64]uint64{3: 1, 4: 2, 5: 0, 6: 0, 7: 0, 10: 8, 12: 11} {
		if got := spans[id-1].Parent; got != want {
			t.Errorf("span %d: parent %d, want %d", id, got, want)
		}
	}
	for i := range spans {
		if spans[i].Op != 0 {
			t.Errorf("span %d: op %d, want background", spans[i].ID, spans[i].Op)
		}
		if want := spans[i].ID == 12; spans[i].Ambiguous != want {
			t.Errorf("span %d: ambiguous = %v, want %v", spans[i].ID, spans[i].Ambiguous, want)
		}
	}
}

func TestOpStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(w, topology(), 1, closedClients)
		if b := streamHash(w, topology(), 1, closedClients); a != b {
			t.Errorf("%s: same seed gave %s then %s", w.name, a, b)
		}
		if c := streamHash(w, topology(), 2, closedClients); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", w.name, a)
		}
	}
	// Distinct key indexes give distinct keys, and a value is only accepted
	// for the key and version it was made for.
	s := newKVState(workloads[1])
	seen := map[uint64]bool{}
	for i := 0; i < s.w.keys; i++ {
		seen[s.keyID(i)] = true
	}
	if len(seen) != s.w.keys {
		t.Errorf("%d distinct keys from %d indexes", len(seen), s.w.keys)
	}
	v := value(42, 7, 128)
	if got := valueVersion(42, v, 128); got != 7 {
		t.Errorf("valueVersion = %d, want 7", got)
	}
	v[100] ^= 1
	if valueVersion(42, v, 128) != 0 || valueVersion(43, value(42, 7, 128), 128) != 0 {
		t.Error("a corrupt or foreign value was accepted")
	}
}

func TestTopologyIsBalanced(t *testing.T) {
	seen := map[uint64]bool{}
	domains := map[string]int{}
	for _, s := range topology() {
		domains[s.Domain]++
		if s.ID >= 1<<ringBits || seen[s.ID>>(ringBits-3)] {
			t.Fatalf("id %d out of range or sharing an arc", s.ID)
		}
		seen[s.ID>>(ringBits-3)] = true
	}
	if len(seen) != 8 || len(domains) != 4 || domains["west/a"] != 2 {
		t.Errorf("arcs %v, domains %v", seen, domains)
	}
}

// threeNodes boots a 3-node in-process cluster, one node per leaf domain of
// west plus one in east.
func threeNodes(t *testing.T, w *workload) (*inprocCluster, *netnode.Client) {
	t.Helper()
	ctx := context.Background()
	specs := topology()
	specs = []nodeSpec{specs[0], specs[2], specs[4]}
	ic, err := startInproc(ctx, t.TempDir(), specs, w, telemetry.NewRegistry(), newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ic.close() })
	tcp, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tcp.Close() })
	cl := netnode.NewClient(tcp)
	if err := waitReady(ctx, cl, ic.ms); err != nil {
		t.Fatal(err)
	}
	return ic, cl
}

func TestOwnerOracleAgainstCluster(t *testing.T) {
	ic, cl := threeNodes(t, workloads[0])
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		entry := rng.Intn(len(ic.ms))
		key := uint64(rng.Uint32())
		prefix := prefixAt(ic.ms[entry].Domain, rng.Intn(3))
		got, _, err := cl.Lookup(context.Background(), ic.ms[entry].Addr, key, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := owner(ic.ms, key, prefix); got.ID != want.ID {
			t.Fatalf("key %d in %q via node %d: cluster says %d, oracle says %d", key, prefix, entry, got.ID, want.ID)
		}
	}
	// A node's own identifier is owned by that node.
	for _, m := range ic.ms {
		if o, _ := owner(ic.ms, m.ID, ""); o.ID != m.ID {
			t.Errorf("owner(%d) = %d", m.ID, o.ID)
		}
	}
}

func TestVerifierCatchesAWrongExpectedValue(t *testing.T) {
	w := workloads[2]
	ic, cl := threeNodes(t, w)
	ctx := context.Background()
	r := newRunner(w, ic.ms, cl, nil, 1)
	if !r.kvOp(ctx, opPut, 0, 0) || !r.kvOp(ctx, opGet, 0, 1) {
		t.Fatalf("put then get failed: %s", r.firstErr)
	}
	r.kv.keys[0].acked.Add(1) // the expected value is now deliberately wrong
	if r.kvOp(ctx, opGet, 0, 1) || r.failed.Load() != 1 {
		t.Error("a get returning another version than the expected one passed")
	}
	// A wrong expected owner fails a lookup the same way.
	lr := newRunner(workloads[0], ic.ms, cl, nil, 1)
	lr.injectWrong = true
	if lr.do(ctx, op{kind: opLookup, key: 64, entry: 0}) || lr.do(ctx, op{kind: opLookup, key: 65, entry: 0}) != true {
		t.Errorf("inject-wrong: key 64 must fail and key 65 pass: %s", lr.firstErr)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v does not match %+v", i, m, endToEnd[i])
		}
	}
	layer := perLayer()
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layer[i].name || m.Unit != layer[i].unit {
			t.Errorf("per-layer metric %d: %+v does not match %+v", i, m, layer[i])
		}
	}
}

func checkMetrics(t *testing.T, m metricSet, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		name := d.name
		got, ok := m[name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is %g", name, got.Value)
		case got.Unit == "" || got.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", name, got.Unit, d.unit)
		}
	}
}

// TestTracedPassSmoke runs every workload for about a second on the
// in-process cluster and holds the traced pass to what it promises.
func TestTracedPassSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{seed: 1, canond: filepath.Join(dir, "canond"), out: filepath.Join(dir, "out")}
			res := &result{PassSeconds: map[string]float64{}, Samples: map[string]int{}, Metrics: metricSet{}}
			p50, err := runTraced(context.Background(), cfg, w, topology(), res, 400*time.Millisecond, 800*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstError)
			}
			checkMetrics(t, res.Metrics, tracedLayer)
			m := res.Metrics
			if p50 <= 0 || m["client.rpcs_per_op"].Value < 1 || m["transport.calls_per_op"].Value < m["client.rpcs_per_op"].Value {
				t.Errorf("p50 %g, rpcs/op %g, calls/op %g", p50, m["client.rpcs_per_op"].Value, m["transport.calls_per_op"].Value)
			}
			if res.SumGapPct > 2 {
				t.Errorf("layers sum to the op's duration within %g%%, want 2%%", res.SumGapPct)
			}
			if got := m["transport.mux_frames_per_call"].Value; math.Abs(got-4) > 0.2 {
				t.Errorf("mux frames per call = %g, want about 4", got)
			}
			switch w.name {
			case "lookup_hier":
				for _, name := range []string{"canonstore.put_us", "canonstore.sync_us", "canonstore.get_us", "canonstore.store_share_pct"} {
					if m[name].Value != 0 {
						t.Errorf("%s = %g on a workload without store work", name, m[name].Value)
					}
				}
				if m["client.rpcs_per_op"].Value != 1 {
					t.Errorf("a lookup is one client RPC, got %g", m["client.rpcs_per_op"].Value)
				}
			case "kv_mix_mem":
				if m["canonstore.sync_us"].Value > 5 || m["canonstore.fsyncs_per_put"].Value != 0 {
					t.Errorf("Mem store: sync %g us, %g fsyncs per put", m["canonstore.sync_us"].Value, m["canonstore.fsyncs_per_put"].Value)
				}
			case "put_durable":
				if m["canonstore.fsyncs_per_put"].Value <= 0 || m["canonstore.wal_bytes_per_user_byte"].Value < 1 {
					t.Errorf("Disk store: %g fsyncs per put, %g WAL bytes per user byte",
						m["canonstore.fsyncs_per_put"].Value, m["canonstore.wal_bytes_per_user_byte"].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStartOnConfinesTheChild: the child runs on the one CPU asked for, and
// the forking thread gets its own CPU set back.
func TestStartOnConfinesTheChild(t *testing.T) {
	var before cpuMask
	if err := before.get(); err != nil {
		t.Fatal(err)
	}
	allowed := before.cpus()
	for k := 0; k < len(allowed)+1; k++ {
		cmd := exec.Command("sleep", "5")
		if err := startOn(cmd, k); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid))
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("Cpus_allowed_list:\t%d\n", allowed[k%len(allowed)])
		if !strings.Contains(string(raw), want) {
			t.Errorf("child %d: want %q in its status", k, want)
		}
	}
	var after cpuMask
	if err := after.get(); err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("CPU set after startOn = %v, want %v", after.cpus(), allowed)
	}
}

// TestProcessClusterSmoke builds canond and, briefly, takes one workload
// through the end-to-end run and every workload through the per-layer run
// on a real 8-process cluster.
func TestProcessClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds canond and boots process clusters")
	}
	dir := t.TempDir()
	canond := filepath.Join(dir, "canond")
	build := exec.Command("go", "build", "-o", canond, "./cmd/canond")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building canond: %v\n%s", err, out)
	}
	run := func(w *workload, trace int, names []metricDef) {
		cfg := config{seed: 2, seconds: 2.5, trace: trace, canond: canond, out: filepath.Join(dir, "out")}
		res, err := runOne(context.Background(), cfg, w)
		if err != nil {
			t.Fatalf("%s trace %d: %v", w.name, trace, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s trace %d: %d of %d ops failed: %s", w.name, trace, res.Failed, res.Attempted, res.FirstError)
		}
		checkMetrics(t, res.Metrics, names)
		if len(res.Metrics) != len(names) {
			t.Errorf("%s trace %d: %d metrics reported, %d named", w.name, trace, len(res.Metrics), len(names))
		}
	}
	run(workloads[1], 0, endToEnd) // put_durable: Disk, sweep, kill and reopen
	for _, w := range workloads {
		run(w, 1, perLayer())
	}
	left, err := filepath.Glob(filepath.Join(dir, "nodes-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("data directories left behind: %v %v", left, err)
	}
}
