package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
)

// Metric names published by Instrumented. Named constants (rather than
// literals at the registration sites) are a canonvet metricnames requirement:
// they keep the full metric namespace greppable in one place and stop two
// call sites from silently registering near-identical names.
const (
	mnTransportCalls      = "canon_transport_calls_total"
	mnTransportCallErrors = "canon_transport_call_errors_total"
	mnTransportCallSec    = "canon_transport_call_seconds"
	mnTransportServed     = "canon_transport_served_total"
	mnTransportHandleSec  = "canon_transport_handle_seconds"

	// Mux wire-protocol series, published by TCP itself (pass
	// TCPOptions.Telemetry) rather than by the Instrumented wrapper: they
	// describe connection-level mechanics — reuse, refused handshakes,
	// in-flight multiplexing depth — that no wrapper can observe.
	mnMuxDials     = "canon_transport_mux_dials_total"
	mnMuxConnReuse = "canon_transport_mux_conn_reuse_total"
	mnMuxInflight  = "canon_transport_mux_inflight"
	mnMuxRejected  = "canon_transport_mux_rejected_total"
	mnMuxFrames    = "canon_transport_mux_frames_total"
)

// muxMetrics carries the cached handles for the canon_transport_mux_* series.
type muxMetrics struct {
	dials      *telemetry.Counter
	connReuse  *telemetry.Counter
	inflight   *telemetry.Gauge
	rejected   *telemetry.Counter
	framesSent *telemetry.Counter
	framesRecv *telemetry.Counter
}

// newMuxMetrics registers (or re-resolves) the mux series in reg.
func newMuxMetrics(reg *telemetry.Registry) muxMetrics {
	return muxMetrics{
		dials:      reg.Counter(mnMuxDials, "mux connections successfully dialed"),
		connReuse:  reg.Counter(mnMuxConnReuse, "calls multiplexed onto an already-established connection"),
		inflight:   reg.Gauge(mnMuxInflight, "requests currently in flight on multiplexed connections"),
		rejected:   reg.Counter(mnMuxRejected, "accepted connections closed in the handshake: no mux hello, or another wire version"),
		framesSent: reg.Counter(mnMuxFrames, "mux frames moved, by direction", telemetry.L("dir", "send")),
		framesRecv: reg.Counter(mnMuxFrames, "mux frames moved, by direction", telemetry.L("dir", "recv")),
	}
}

// Instrumented wraps any Transport and publishes wire-level metrics into a
// telemetry registry: call counts and latency on the send path, request
// counts and handler latency by message type on the serve path. It composes
// with Faulty in either order; in canond it sits innermost, so the send-side
// counters measure what actually reaches the wire (injected duplicates
// included, injected request-drops excluded).
type Instrumented struct {
	inner Transport

	reg         *telemetry.Registry
	calls       *telemetry.Counter
	callErrors  *telemetry.Counter
	callSeconds *telemetry.Histogram
	handleSec   *telemetry.Histogram

	// served maps a message type to its canon_transport_served_total
	// counter. It is copied on write under servedMu and read without a lock,
	// so a type pays the registry's key building and locking once.
	served   atomic.Pointer[map[string]*telemetry.Counter]
	servedMu sync.Mutex
}

// maxServedTypes bounds the message types Instrumented keeps a resolved
// served counter for. A node serves a fixed handful of types; a Type string
// a hostile peer invents past the bound goes through the registry's locked
// lookup on every request instead of growing the map.
const maxServedTypes = 64

var _ Transport = (*Instrumented)(nil)

// WithTelemetry wraps inner so its traffic is measured into reg.
func WithTelemetry(inner Transport, reg *telemetry.Registry) *Instrumented {
	t := &Instrumented{
		inner:       inner,
		reg:         reg,
		calls:       reg.Counter(mnTransportCalls, "transport-level call attempts sent"),
		callErrors:  reg.Counter(mnTransportCallErrors, "transport-level call attempts that failed"),
		callSeconds: reg.Histogram(mnTransportCallSec, "transport-level call latency, seconds", telemetry.DefBuckets),
		handleSec:   reg.Histogram(mnTransportHandleSec, "serve-side handler latency, seconds", telemetry.DefBuckets),
	}
	t.served.Store(&map[string]*telemetry.Counter{})
	return t
}

// servedCounter returns the served counter for a message type: lock-free
// once the type has been seen, through the registry the first time (and
// every time, for types past maxServedTypes).
func (t *Instrumented) servedCounter(msgType string) *telemetry.Counter {
	if c, ok := (*t.served.Load())[msgType]; ok {
		return c
	}
	c := t.reg.Counter(mnTransportServed, "incoming requests handed to the handler, by type",
		telemetry.L("type", msgType))
	t.servedMu.Lock()
	defer t.servedMu.Unlock()
	old := *t.served.Load()
	if _, ok := old[msgType]; !ok && len(old) < maxServedTypes {
		m := make(map[string]*telemetry.Counter, len(old)+1)
		for k, v := range old {
			m[k] = v
		}
		m[msgType] = c
		t.served.Store(&m)
	}
	return c
}

// Inner returns the wrapped transport.
func (t *Instrumented) Inner() Transport { return t.inner }

// Addr implements Transport.
func (t *Instrumented) Addr() string { return t.inner.Addr() }

// Close implements Transport.
func (t *Instrumented) Close() error { return t.inner.Close() }

// Call implements Transport, timing and counting the attempt.
func (t *Instrumented) Call(ctx context.Context, addr string, msg Message) (Message, error) {
	start := time.Now()
	resp, err := t.inner.Call(ctx, addr, msg)
	t.callSeconds.Observe(time.Since(start).Seconds())
	t.calls.Inc()
	if err != nil {
		t.callErrors.Inc()
	}
	return resp, err
}

// Serve implements Transport, counting and timing every delivered request —
// duplicates included, since nonce dedup (DedupHandler / Faulty.Serve) runs
// inside the handler this wrapper is given. The node-level
// canon_rpc_received_total counters sit behind the dedup layer, so the gap
// between canon_transport_served_total and canon_rpc_received_total is
// exactly the duplicate deliveries that were suppressed.
func (t *Instrumented) Serve(h Handler) {
	t.inner.Serve(func(ctx context.Context, from string, msg Message) (Message, error) {
		t.servedCounter(msg.Type).Inc()
		start := time.Now()
		resp, err := h(ctx, from, msg)
		t.handleSec.Observe(time.Since(start).Seconds())
		return resp, err
	})
}
