package netnode

import (
	"sync"

	"github.com/canon-dht/canon/internal/telemetry"
)

// lookupReqPool recycles lookup request objects across forwarded hops and
// handler decodes, so the steady-state forwarding path allocates no request
// object per hop.
//
// Safety of recycling hinges on two properties, both pinned by tests:
//
//   - Every in-tree delivery of a request body completes before Call returns
//     (the in-memory bus runs the handler synchronously, the faulty wrapper
//     delivers duplicates synchronously, and the mux encodes the body into
//     the frame before round-tripping), and receiver-side dedup caches only
//     responses — so once n.call returns, nothing references the request.
//   - A pooled object is fully zeroed before reuse (putLookupReq), so what
//     the pool hands out is indistinguishable from a fresh object whichever
//     fields its next user sets: no request can inherit the previous one's
//     Trace and Spans. The pool-reuse fuzzer (FuzzLookupReqPoolReuse) proves
//     no sequence of decodes leaks spans between requests.
var lookupReqPool = sync.Pool{
	New: func() any { return new(lookupReq) },
}

// getLookupReq returns a zeroed lookup request from the pool.
func getLookupReq() *lookupReq {
	return lookupReqPool.Get().(*lookupReq)
}

// putLookupReq zeroes q and returns it to the pool. A span slice attached to
// q is detached and recycled through the telemetry span pool (which zeroes
// it), so neither the object nor its backing array can leak trace state.
func putLookupReq(q *lookupReq) {
	spans := q.Spans
	*q = lookupReq{}
	lookupReqPool.Put(q)
	telemetry.PutSpans(spans)
}

// getReqPool recycles routed-get request objects the same way: a get is the
// hot key-value message and, like a lookup, carries no payload worth
// allocating for on every forwarded hop. The same two properties hold — the
// request is dead once n.call returns, and putGetReq zeroes it.
var getReqPool = sync.Pool{
	New: func() any { return new(getReq) },
}

// getGetReq returns a zeroed get request from the pool.
func getGetReq() *getReq {
	return getReqPool.Get().(*getReq)
}

// putGetReq zeroes q and returns it to the pool.
func putGetReq(q *getReq) {
	*q = getReq{}
	getReqPool.Put(q)
}
