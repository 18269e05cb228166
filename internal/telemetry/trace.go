package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Span is one hop's evidence in a distributed route trace. Each node a traced
// lookup passes through appends exactly one span: either a forwarding span
// (Level records the depth of the lowest common domain shared with the next
// hop — the level at which the hop was taken) or a terminal span with Owner
// set, emitted by the node that answered: the key's closest predecessor, or
// — for a lookup — the node in front of it, which names the owner from its
// successor list instead of forwarding to it.
type Span struct {
	// Hop is the span's position on the path, starting at 0 at the entry node.
	Hop int `json:"hop"`
	// Name is the hop node's hierarchical domain name.
	Name string `json:"name"`
	// ID is the hop node's ring identifier.
	ID uint64 `json:"id"`
	// Addr is the hop node's wire address.
	Addr string `json:"addr"`
	// Level is the depth of the lowest common domain between this node and
	// the next hop: leaf-deep hops stay inside the domain, level-0 hops cross
	// top-level domain boundaries. -1 on terminal spans (no next hop).
	Level int `json:"level"`
	// RouteAround marks hops where the distance-best candidate was skipped —
	// because the failure detector distrusts it or because it did not answer.
	RouteAround bool `json:"routeAround,omitempty"`
	// Owner marks the terminal span: this node answered. That is the key's
	// owner within the lookup's domain, or the node in front of it when a
	// lookup stopped one hop early; the lookup's answer names the owner.
	Owner bool `json:"owner,omitempty"`
}

// Trace is one completed traced lookup: its identity, target, and per-hop
// span records in path order.
type Trace struct {
	ID     string    `json:"id"`
	Key    uint64    `json:"key"`
	Prefix string    `json:"prefix"`
	Spans  []Span    `json:"spans"`
	When   time.Time `json:"when"`
}

// Hops returns the number of forwarding hops the trace took (spans minus the
// entry node's own record).
func (t Trace) Hops() int {
	if len(t.Spans) == 0 {
		return 0
	}
	return len(t.Spans) - 1
}

// ExitProxy returns the last span whose node still belongs to the named
// domain — the proxy through which the route left it. The paper's
// inter-domain convergence property (Section 3.2) says every route from
// inside one domain to one outside key exits through the same proxy. ok is
// false when no span is inside the domain.
func (t Trace) ExitProxy(prefix string) (Span, bool) {
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if SpanInDomain(t.Spans[i], prefix) {
			return t.Spans[i], true
		}
	}
	return Span{}, false
}

// OutOfDomainHops counts spans on the trace that lie outside the named
// domain. Intra-domain path locality (Section 3.2) demands this be zero for
// lookups constrained to the querier's own domain.
func (t Trace) OutOfDomainHops(prefix string) int {
	out := 0
	for _, s := range t.Spans {
		if !SpanInDomain(s, prefix) {
			out++
		}
	}
	return out
}

// SpanInDomain reports whether the span's node belongs to the domain named
// prefix ("" contains everyone).
func SpanInDomain(s Span, prefix string) bool {
	if prefix == "" {
		return true
	}
	return s.Name == prefix || strings.HasPrefix(s.Name, prefix+"/")
}

// fallbackRNG backs NewTraceID when the caller passes no generator. It is a
// private, mutex-guarded source rather than math/rand's global one so that
// trace-ID draws never contend with (or perturb) other users of the global
// generator — the same isolation the node RNGs got after the PR 1 race.
var (
	fallbackMu  sync.Mutex
	fallbackRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// NewTraceID draws a 16-hex-digit trace identifier from rng (nil means a
// private time-seeded source). Seeded callers get reproducible IDs.
func NewTraceID(rng *rand.Rand) string {
	if rng == nil {
		fallbackMu.Lock()
		defer fallbackMu.Unlock()
		return fmt.Sprintf("%08x%08x", fallbackRNG.Uint32(), fallbackRNG.Uint32())
	}
	return fmt.Sprintf("%08x%08x", rng.Uint32(), rng.Uint32())
}

// TraceStore keeps the most recent completed traces in a bounded FIFO ring,
// indexed by trace ID — what a node's /debug/trace/<id> endpoint serves.
type TraceStore struct {
	mu     sync.Mutex
	cap    int
	order  []string
	byID   map[string]Trace
	stored int64
}

// NewTraceStore returns a store keeping up to capacity traces (values below
// 1 mean 128).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 128
	}
	return &TraceStore{cap: capacity, byID: make(map[string]Trace, capacity)}
}

// Record archives a completed trace, evicting the oldest past capacity.
// Re-recording an existing ID replaces it in place (trace-aware dedup: a
// replayed response must not grow the store).
func (s *TraceStore) Record(t Trace) {
	if t.ID == "" {
		return
	}
	if t.When.IsZero() {
		t.When = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[t.ID]; ok {
		s.byID[t.ID] = t
		return
	}
	if len(s.order) >= s.cap {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.byID, oldest)
	}
	s.order = append(s.order, t.ID)
	s.byID[t.ID] = t
	s.stored++
}

// Get returns the trace with the given ID.
func (s *TraceStore) Get(id string) (Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Recent returns up to n trace IDs, newest first.
func (s *TraceStore) Recent(n int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || n > len(s.order) {
		n = len(s.order)
	}
	out := make([]string, 0, n)
	for i := len(s.order) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, s.order[i])
	}
	return out
}

// Len returns how many traces the store currently holds.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Handler serves the store over HTTP: GET <mount>/<id> returns one trace as
// JSON, GET <mount>/ lists recent IDs. Mount it at /debug/trace/.
func (s *TraceStore) Handler(mount string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, mount)
		id = strings.Trim(id, "/")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id == "" {
			_ = enc.Encode(struct {
				Recent []string `json:"recent"`
			}{Recent: s.Recent(64)})
			return
		}
		t, ok := s.Get(id)
		if !ok {
			http.Error(w, fmt.Sprintf(`{"error":"trace %q not found"}`, id), http.StatusNotFound)
			return
		}
		_ = enc.Encode(t)
	})
}
