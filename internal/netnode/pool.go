package netnode

import (
	"sync"

	"github.com/canon-dht/canon/internal/telemetry"
)

// reqPool recycles the request objects of one routed message type (see
// routedOp) across forwarded hops and handler decodes, so the steady-state
// forwarding path allocates no request object per hop.
//
// Safety of recycling hinges on two properties, both pinned by tests:
//
//   - Every in-tree delivery of a request body completes before Call returns
//     (the in-memory bus runs the handler synchronously, the faulty wrapper
//     delivers duplicates synchronously, and the mux encodes the body into
//     the frame before round-tripping), and receiver-side dedup caches only
//     responses — so once n.call returns, nothing references the request.
//   - A pooled object is fully zeroed before reuse (put), so what the pool
//     hands out is indistinguishable from a fresh object whichever fields
//     its next user sets: no request can inherit the previous one's Trace
//     and Spans. The pool-reuse fuzzer (FuzzLookupReqPoolReuse, over every
//     routed request type) proves no sequence of decodes leaks spans between
//     requests.
type reqPool[T any, PT interface {
	*T
	routed
}] struct {
	pool sync.Pool
}

// get returns a zeroed request from the pool.
func (p *reqPool[T, PT]) get() PT {
	if q, ok := p.pool.Get().(PT); ok {
		return q
	}
	return PT(new(T))
}

// put zeroes q and returns it to the pool. A span slice attached to q is
// detached and recycled through the telemetry span pool (which zeroes it),
// so neither the object nor its backing array can leak trace state.
func (p *reqPool[T, PT]) put(q PT) {
	spans := q.header().Spans
	var zero T
	*q = zero
	p.pool.Put(q)
	telemetry.PutSpans(spans)
}
