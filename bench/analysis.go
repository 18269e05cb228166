package main

import (
	"math"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
)

// Series the program publishes; the benchmark reads them by name from the
// registry it passed in.
const (
	seriesTransportCalls = "canon_transport_calls_total"
	seriesRetries        = "canon_rpc_retries_total"
	seriesMuxFrames      = "canon_transport_mux_frames_total"
	seriesMuxDials       = "canon_transport_mux_dials_total"
	seriesWALFsyncs      = "canon_store_wal_fsyncs_total"
	seriesWALBytes       = "canon_store_wal_bytes_total"
	seriesCompactions    = "canon_store_wal_compactions_total"
)

// counts is a snapshot of the registry series the traced pass reports on.
type counts struct {
	calls, retries, frames, dials, fsyncs, walBytes, compactions int64
}

func readCounts(reg *telemetry.Registry) counts {
	return counts{
		calls:   reg.CounterValue(seriesTransportCalls),
		retries: reg.CounterValue(seriesRetries),
		frames: reg.CounterValue(seriesMuxFrames, telemetry.L("dir", "send")) +
			reg.CounterValue(seriesMuxFrames, telemetry.L("dir", "recv")),
		dials:       reg.CounterValue(seriesMuxDials),
		fsyncs:      reg.CounterValue(seriesWALFsyncs),
		walBytes:    reg.CounterValue(seriesWALBytes),
		compactions: reg.CounterValue(seriesCompactions),
	}
}

func (c counts) sub(o counts) counts {
	return counts{
		calls: c.calls - o.calls, retries: c.retries - o.retries, frames: c.frames - o.frames,
		dials: c.dials - o.dials, fsyncs: c.fsyncs - o.fsyncs, walBytes: c.walBytes - o.walBytes,
		compactions: c.compactions - o.compactions,
	}
}

// breakdown is where one op's time went, by layer. The four parts are the
// self times of the spans in the op's tree, so they sum to the op's
// duration whenever the spans nest without overlap.
type breakdown struct {
	dur, client, wire, serve, store int64
}

// attribution is the traced pass's span arithmetic.
type attribution struct {
	ops        []breakdown
	putOps     int
	maxSumGap  float64 // worst |client+wire+serve+store − dur| / dur over the ops
	clientRPCs int     // call spans issued by the driver's client
	calls      int     // call spans inside op trees
	lookupCall int     // client-issued lookup calls
	lookupHops int     // lookups forwarded node to node inside op trees

	serveSelf  map[string]int64 // foreground serve self time by message type
	serveCount map[string]int
	storeDur   map[string]int64 // store span time by method, foreground and background
	storeCount map[string]int
	ambiguous  int // store spans whose serve span had to be guessed

	bgServes   int   // serve spans outside any op tree: maintenance
	bgBusy     int64 // their self time plus the store time under them
	replicaRPC int   // served store2 requests (replica pushes, level copies, handoffs)
	antiRPC    int   // served synctree / synckeys / syncpull
}

func attribute(spans []span, self []int64) attribution {
	a := attribution{
		serveSelf: map[string]int64{}, serveCount: map[string]int{},
		storeDur: map[string]int64{}, storeCount: map[string]int{},
	}
	byID := make(map[uint64]int, len(spans))
	perOp := make(map[uint64]*breakdown)
	for i := range spans {
		byID[spans[i].ID] = i
		if spans[i].Kind == kindOp {
			perOp[spans[i].ID] = &breakdown{dur: spans[i].dur(), client: self[i]}
			if spans[i].Type == opPut.String() {
				a.putOps++
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Kind == kindStore {
			a.storeDur[s.Type] += s.dur()
			a.storeCount[s.Type]++
			if s.Ambiguous {
				a.ambiguous++
			}
		}
		if s.Kind == kindServe {
			switch s.Type {
			case "store2":
				a.replicaRPC++
			case "synctree", "synckeys", "syncpull":
				a.antiRPC++
			}
		}
		b := perOp[s.Op]
		if b == nil { // background
			switch s.Kind {
			case kindServe:
				a.bgServes++
				a.bgBusy += self[i]
			case kindStore:
				a.bgBusy += self[i]
			}
			continue
		}
		switch s.Kind {
		case kindCall:
			b.wire += self[i]
			a.calls++
			if p, ok := byID[s.Parent]; ok && spans[p].Kind == kindOp {
				a.clientRPCs++
				if s.Type == "lookup" {
					a.lookupCall++
				}
			} else if s.Type == "lookup" {
				a.lookupHops++
			}
		case kindServe:
			b.serve += self[i]
			a.serveSelf[s.Type] += self[i]
			a.serveCount[s.Type]++
		case kindStore:
			b.store += self[i]
		}
	}
	for _, b := range perOp {
		a.ops = append(a.ops, *b)
		if b.dur > 0 {
			gap := math.Abs(float64(b.client+b.wire+b.serve+b.store-b.dur)) / float64(b.dur)
			a.maxSumGap = max(a.maxSumGap, gap)
		}
	}
	return a
}

// tracedMetrics turns the attribution, the registry deltas over the traced
// window and the driver's own counts into the traced pass's metrics.
func tracedMetrics(m metricSet, a attribution, d counts, window time.Duration, valueBytes int64) {
	nops := float64(len(a.ops))
	var dur, client, wire, serve, store int64
	for _, b := range a.ops {
		dur += b.dur
		client += b.client
		wire += b.wire
		serve += b.serve
		store += b.store
	}
	m.set("client.rpcs_per_op", ratio(float64(a.clientRPCs), nops))
	m.set("client.self_us_per_op", ratio(us(client), nops))

	m.set("transport.calls_per_op", ratio(float64(a.calls), nops))
	m.set("transport.wire_us_per_call", ratio(us(wire), float64(a.calls)))
	m.set("transport.wire_us_per_op", ratio(us(wire), nops))
	m.set("transport.wire_share_pct", 100*ratio(float64(wire), float64(dur)))
	m.set("transport.retry_ratio", ratio(float64(d.retries), float64(d.calls)))
	m.set("transport.mux_frames_per_call", ratio(float64(d.frames), float64(d.calls)))
	m.set("transport.mux_dials", float64(d.dials))

	m.set("netnode.hops_per_lookup", ratio(float64(a.lookupHops), float64(a.lookupCall)))
	for _, typ := range []string{"lookup", "store", "fetch", "ping"} {
		m.set("netnode.serve_self_us."+typ, ratio(us(a.serveSelf[typ]), float64(a.serveCount[typ])))
	}
	m.set("netnode.serve_self_us_per_op", ratio(us(serve), nops))
	m.set("netnode.maint_calls_per_s", float64(a.bgServes)/window.Seconds())
	m.set("netnode.maint_busy_pct", 100*float64(a.bgBusy)/float64(window))
	m.set("netnode.replica_calls_per_put", ratio(float64(a.replicaRPC), float64(a.putOps)))
	m.set("netnode.antientropy_calls_per_s", float64(a.antiRPC)/window.Seconds())

	for _, method := range []string{"put", "sync", "get"} {
		m.set("canonstore."+method+"_us", ratio(us(a.storeDur[method]), float64(a.storeCount[method])))
	}
	storePuts := float64(a.storeCount["put"])
	m.set("canonstore.syncs_per_put", ratio(float64(a.storeCount["sync"]), storePuts))
	m.set("canonstore.fsyncs_per_put", ratio(float64(d.fsyncs), storePuts))
	m.set("canonstore.store_share_pct", 100*ratio(float64(store), float64(dur)))
	m.set("canonstore.wal_bytes_per_user_byte", ratio(float64(d.walBytes), float64(valueBytes)))
	m.set("canonstore.compactions", float64(d.compactions))
}
