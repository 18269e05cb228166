package netnode

import (
	"testing"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// FuzzLookupReqPoolReuse proves the pooling hygiene the forwarding hot path
// depends on: a lookupReq recycled through the pool carries nothing from its
// previous life — an unzeroed recycled object could hand an untraced request
// the previous request's Trace and Spans, leaking route data across lookups
// (and across tenants, on a shared deployment).
func FuzzLookupReqPoolReuse(f *testing.F) {
	f.Add(uint64(1), "west/ca", 3, "trace-1", 4)
	f.Add(uint64(0), "", 0, "", 0)
	f.Add(uint64(1<<40), "a/b/c", 511, "t", 16)
	f.Fuzz(func(t *testing.T, key uint64, prefix string, hops int, trace string, spanCount int) {
		// A traced hop populates a pooled request and returns it.
		q := getLookupReq()
		q.Key, q.Prefix, q.Hops, q.Trace = key, prefix, hops, trace
		spans := telemetry.GetSpans()
		for i := 0; i < spanCount&15; i++ {
			spans = append(spans, telemetry.Span{Hop: i, Name: prefix, ID: key, Addr: trace, RouteAround: true})
		}
		q.Spans = spans
		putLookupReq(q)

		// Whatever the pool hands out next must be indistinguishable from a
		// fresh object.
		q2 := getLookupReq()
		if q2.Key != 0 || q2.Prefix != "" || q2.Hops != 0 || q2.Trace != "" || q2.Spans != nil {
			t.Fatalf("pooled lookupReq not zeroed: %+v", *q2)
		}

		// Decoding an UNtraced request into the recycled object must yield an
		// untraced request.
		fresh := lookupReq{Key: key, Prefix: prefix, Hops: hops}
		msg, err := transport.NewMessage(msgLookup, &fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := msg.Decode(q2); err != nil {
			t.Fatal(err)
		}
		if q2.Trace != "" || len(q2.Spans) != 0 {
			t.Fatalf("recycled request leaked trace state: trace=%q spans=%d", q2.Trace, len(q2.Spans))
		}
		if q2.Key != key || q2.Prefix != prefix || q2.Hops != hops {
			t.Fatalf("decode into recycled request corrupted fields: %+v", *q2)
		}
		putLookupReq(q2)

		// The span pool must also return zeroed backing arrays: stale spans
		// hiding between len and cap would resurface on the next append-grow.
		s := telemetry.GetSpans()
		for _, sp := range s[:cap(s)] {
			if sp != (telemetry.Span{}) {
				t.Fatalf("span pool returned dirty backing array: %+v", sp)
			}
		}
		telemetry.PutSpans(s)
	})
}
