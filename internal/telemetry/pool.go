package telemetry

import "sync"

// spanSlicePool recycles the span slices that ride inside forwarded traced
// lookups. A forwarding hop copies the inbound spans, appends its own, sends,
// and returns the slice here — so steady-state traced forwarding reuses one
// backing array per concurrent hop instead of allocating per hop.
//
// Only transient, send-side span slices belong in the pool. Spans that are
// retained — archived in a TraceStore or held by a cached response — must be
// freshly allocated by their producer and never recycled.
var spanSlicePool = sync.Pool{
	New: func() any {
		s := make([]Span, 0, 16)
		return &s
	},
}

// maxPooledSpans bounds the backing arrays the pool retains, so one
// pathologically long route does not pin memory forever.
const maxPooledSpans = 1024

// GetSpans returns an empty span slice with pooled backing capacity.
func GetSpans() []Span {
	return (*spanSlicePool.Get().(*[]Span))[:0]
}

// PutSpans recycles a span slice obtained from GetSpans (or any transient
// span slice the caller owns outright). The backing array is zeroed first so
// a recycled slice can never leak a prior request's spans to the next user —
// the invariant the pool-reuse fuzzer pins down. A nil slice is a no-op
// that allocates nothing, so callers recycle whatever span list they hold.
func PutSpans(s []Span) {
	if s == nil || cap(s) > maxPooledSpans {
		return
	}
	clear(s[:cap(s)])
	// A fresh variable, not s: taking s's address would move the parameter
	// to the heap on entry, nil calls included.
	empty := s[:0]
	spanSlicePool.Put(&empty)
}
