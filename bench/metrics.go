package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("canonblast: metric " + name + " has no unit")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// metricDef names one metric and its unit. The tables below are the one
// place metrics are declared; BENCHMARK.json lists the same names in the
// same order, and a test holds the two together.
type metricDef struct{ name, unit string }

var (
	// endToEnd: the closed pass with tracing off: the metrics with bounds in BENCHMARK.json.
	endToEnd = []metricDef{
		{"ops_per_s", "ops/s"},
		{"p50_us", "us"},
		{"p99_us", "us"},
		{"cpu_us_per_op", "us"},
		{"setup_s", "s"},
	}
	// closedLayer: the per-layer run's work on the process cluster.
	closedLayer = []metricDef{
		{"fail_ratio", "ratio"},
		{"client.p999_us", "us"},
		{"client.stale_read_ratio", "ratio"},
		{"canond.idle_cpu_pct", "%"},
		{"canond.rss_mb", "MB"},
		{"canonstore.recover_ms", "ms"},
	}
	// openLayer: the open pass.
	openLayer = []metricDef{
		{"client.open_p50_us", "us"},
		{"client.open_p99_us", "us"},
		{"client.open_achieved_ratio", "ratio"},
		{"client.open_sched_lag_p99_us", "us"},
	}
	// tracedLayer: the traced pass on the in-process cluster.
	tracedLayer = []metricDef{
		{"client.rpcs_per_op", "count"},
		{"client.self_us_per_op", "us"},
		{"client.inproc_p50_us", "us"},
		{"client.trace_overhead_pct", "%"},
		{"transport.calls_per_op", "count"},
		{"transport.wire_us_per_call", "us"},
		{"transport.wire_us_per_op", "us"},
		{"transport.wire_share_pct", "%"},
		{"transport.retry_ratio", "ratio"},
		{"transport.mux_frames_per_call", "count"},
		{"transport.mux_dials", "count"},
		{"transport.envelope_bytes_per_call", "bytes"},
		{"transport.envelope_encode_ns", "ns"},
		{"transport.envelope_decode_ns", "ns"},
		{"netnode.hops_per_lookup", "count"},
		{"netnode.serve_self_us.lookup", "us"},
		{"netnode.serve_self_us.store", "us"},
		{"netnode.serve_self_us.fetch", "us"},
		{"netnode.serve_self_us.ping", "us"},
		{"netnode.serve_self_us_per_op", "us"},
		{"netnode.maint_calls_per_s", "1/s"},
		{"netnode.maint_busy_pct", "%"},
		{"netnode.replica_calls_per_put", "count"},
		{"netnode.antientropy_calls_per_s", "1/s"},
		{"canonstore.put_us", "us"},
		{"canonstore.sync_us", "us"},
		{"canonstore.get_us", "us"},
		{"canonstore.syncs_per_put", "count"},
		{"canonstore.fsyncs_per_put", "count"},
		{"canonstore.store_share_pct", "%"},
		{"canonstore.wal_bytes_per_user_byte", "ratio"},
		{"canonstore.compactions", "count"},
		{"canonstore.merkle_build_us", "us"},
	}
	// microLayer: micro-measurements.
	microLayer = []metricDef{
		{"transport.echo_rtt_us", "us"},
		{"telemetry.counter_inc_ns", "ns"},
		{"telemetry.histogram_observe_ns", "ns"},
	}
	// crossLayer: needs both the closed and the traced pass.
	crossLayer = []metricDef{
		{"client.process_gap_pct", "%"},
	}
)

// perLayer lists every per-layer metric, in BENCHMARK.json's order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range [][]metricDef{closedLayer, openLayer, tracedLayer, microLayer, crossLayer} {
		out = append(out, l...)
	}
	return out
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(perLayer(), endToEnd...) {
		m[d.name] = d.unit
	}
	return m
}()

// quantile returns the q-quantile of an ascending slice by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile is the highest of p50, p90, p99 and p99.9 that still has at
// least ten samples beyond it: the percentile a sample of size n can speak
// for. With under twenty samples even the median has too few, and ok is
// false.
func tailQuantile(n int) (q float64, ok bool) {
	for _, perMille := range []int{999, 990, 900, 500} {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 1000, true
		}
	}
	return 0.5, false
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// betterHalfMean is the mean of the better half of v (the middle value
// included when the count is odd): the higher half when higher is better.
func betterHalfMean(v []float64, higherBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := (len(s) + 1) / 2
	if higherBetter {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(k)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// echoRTT measures the floor one RPC cannot beat: two TCP endpoints in this
// process, a handler that does nothing, one request in flight.
func echoRTT(ctx context.Context) (float64, error) {
	a, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	b.Serve(func(context.Context, string, transport.Message) (transport.Message, error) {
		return transport.NewMessage("echo", nil)
	})
	req, err := transport.NewMessage("echo", nil)
	if err != nil {
		return 0, err
	}
	const warm, n = 200, 2000
	lat := make([]int64, 0, n)
	for i := 0; i < warm+n; i++ {
		start := time.Now()
		if _, err := a.Call(ctx, b.Addr(), req); err != nil {
			return 0, fmt.Errorf("echo: %w", err)
		}
		if i >= warm {
			lat = append(lat, int64(time.Since(start)))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return us(quantile(lat, 0.5)), nil
}

// telemetryCosts times direct Counter.Inc and Histogram.Observe calls: what
// every instrumented hop pays per series it touches.
func telemetryCosts() (incNS, observeNS float64) {
	reg := telemetry.NewRegistry()
	const (
		probeCounter   = "canonblast_probe_total"
		probeHistogram = "canonblast_probe_seconds"
	)
	c := reg.Counter(probeCounter, "probe")
	h := reg.Histogram(probeHistogram, "probe", telemetry.DefBuckets)
	const n = 1_000_000
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Inc()
	}
	incNS = float64(time.Since(start)) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
	observeNS = float64(time.Since(start)) / n
	return incNS, observeNS
}

// envelopeCosts replays captured messages through the envelope codec.
func envelopeCosts(msgs []transport.Message) (bytesPerMsg, encodeNS, decodeNS float64) {
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	encoded := make([][]byte, 0, len(msgs))
	var total int
	for _, m := range msgs {
		b, err := transport.AppendBinaryMessage(nil, m)
		if err != nil {
			continue
		}
		encoded = append(encoded, b)
		total += len(b)
	}
	if len(encoded) == 0 {
		return 0, 0, 0
	}
	const rounds = 20
	buf := make([]byte, 0, 4096)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			buf, _ = transport.AppendBinaryMessage(buf[:0], m)
		}
	}
	encodeNS = float64(time.Since(start)) / float64(rounds*len(msgs))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range encoded {
			_, _ = transport.DecodeBinaryMessage(b)
		}
	}
	decodeNS = float64(time.Since(start)) / float64(rounds*len(encoded))
	return float64(total) / float64(len(encoded)), encodeNS, decodeNS
}

// merkleBuild times MerkleTree.Add×n + Seal over one node's entries.
func merkleBuild(entries []canonstore.Entry) float64 {
	if len(entries) == 0 {
		return 0
	}
	const rounds = 5
	start := time.Now()
	for r := 0; r < rounds; r++ {
		t := canonstore.NewMerkleTree()
		for _, e := range entries {
			t.Add(e)
		}
		t.Seal()
	}
	return us(int64(time.Since(start))) / rounds
}
