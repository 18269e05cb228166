package netnode

import (
	"reflect"
	"testing"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// FuzzLookupReqPoolReuse proves the pooling hygiene the forwarding hot path
// depends on, for the request pool of every routed message type: a request
// recycled through the pool carries nothing from its previous life — an
// unzeroed recycled object could hand an untraced request the previous
// request's Trace and Spans, leaking route data across lookups, gets and
// puts (and across tenants, on a shared deployment).
func FuzzLookupReqPoolReuse(f *testing.F) {
	f.Add(uint64(1), "west/ca", 3, "trace-1", 4)
	f.Add(uint64(0), "", 0, "", 0)
	f.Add(uint64(1<<40), "a/b/c", 511, "t", 16)
	f.Fuzz(func(t *testing.T, key uint64, prefix string, hops int, trace string, spanCount int) {
		route := routeHeader{Hops: hops}
		checkPoolReuse(t, lookupOp, lookupReq{Key: key, Prefix: prefix, routeHeader: route}, trace, spanCount)
		checkPoolReuse(t, getOp, getReq{Key: key, Origin: prefix, Level: hops, routeHeader: route}, trace, spanCount)
		checkPoolReuse(t, putOp, putReq{Key: key, Value: []byte(prefix), Storage: prefix, Access: prefix, routeHeader: route}, trace, spanCount)
	})
}

// checkPoolReuse puts one op's pooled request through a traced hop's use,
// then requires the next object the pool hands out to be zeroed and an
// untraced request decoded into it to be exactly the untraced request.
func checkPoolReuse[Q, R any, PQ interface {
	*Q
	routed
}](t *testing.T, op *routedOp[Q, R, PQ], untraced Q, trace string, spanCount int) {
	t.Helper()
	// A traced hop populates a pooled request and returns it.
	q := op.reqs.get()
	*q = untraced
	h := q.header()
	h.Trace, h.Spans = trace, telemetry.GetSpans()
	for i := 0; i < spanCount&15; i++ {
		h.Spans = append(h.Spans, telemetry.Span{Hop: i, Name: trace, ID: uint64(i), Addr: trace, RouteAround: true})
	}
	op.reqs.put(q)

	// Whatever the pool hands out next must be indistinguishable from a
	// fresh object.
	q2 := op.reqs.get()
	var zero Q
	if !reflect.DeepEqual(*q2, zero) {
		t.Fatalf("pooled %s request not zeroed: %+v", op.msg, *q2)
	}

	// Decoding an untraced request into the recycled object must yield
	// exactly that untraced request.
	msg, err := transport.NewMessage(op.msg, PQ(&untraced))
	if err != nil {
		t.Fatal(err)
	}
	if err := msg.Decode(q2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*q2, untraced) {
		t.Fatalf("recycled %s request decoded to %+v, want %+v", op.msg, *q2, untraced)
	}
	op.reqs.put(q2)

	// The span pool must also return zeroed backing arrays: stale spans
	// hiding between len and cap would resurface on the next append-grow.
	s := telemetry.GetSpans()
	for _, sp := range s[:cap(s)] {
		if sp != (telemetry.Span{}) {
			t.Fatalf("span pool returned dirty backing array: %+v", sp)
		}
	}
	telemetry.PutSpans(s)
}
