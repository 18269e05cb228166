package netnode

import (
	"sync"
	"sync/atomic"
	"time"
)

// PeerState classifies a peer's observed liveness.
type PeerState int

const (
	// PeerAlive means the peer's last call succeeded (or it was never tried).
	PeerAlive PeerState = iota
	// PeerSuspect means the peer has failed a few consecutive calls; routing
	// deprioritizes it but still uses it as a last resort.
	PeerSuspect
	// PeerDead means the peer kept failing past the suspect threshold; it is
	// routed around until a probation probe succeeds.
	PeerDead
)

// String returns the state's lowercase name.
func (s PeerState) String() string {
	switch s {
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "alive"
	}
}

// Thresholds and probation windows of the failure detector. Consecutive
// failures promote alive → suspect → dead; a success resets to alive. Suspect
// and dead peers re-enter service through probation: after the window passes,
// one call is allowed through as a probe, and its outcome decides the state.
const (
	suspectThreshold = 2
	deadThreshold    = 5
	suspectProbation = 500 * time.Millisecond
	deadProbation    = 2 * time.Second
)

// peerHealth is one peer's failure-detector state. All fields are atomics:
// once a peer's entry exists in the tracker's map, every read and write goes
// through them, so the forwarding hot path queries health without locking.
type peerHealth struct {
	state      atomic.Int32 // a PeerState
	fails      atomic.Int32 // consecutive failures
	probeAfter atomic.Int64 // unix nanos when a suspect/dead peer may be probed
}

// healthTracker is a per-node failure detector fed by every RPC outcome.
//
// Reads — preferred() on the forwarding hot path, state(), snapshot() — are
// lock-free: the peer map lives behind an atomic pointer and individual peer
// entries are atomics. The single mutex serializes only the copy-on-write
// insertion of first-seen peers (a rare event: the peer set is the routing
// table's neighborhood, which stabilizes quickly), never a lookup.
type healthTracker struct {
	mu    sync.Mutex // serializes COW inserts of new peers only
	now   func() time.Time
	peers atomic.Pointer[map[string]*peerHealth]
}

func newHealthTracker() *healthTracker {
	h := &healthTracker{now: time.Now}
	m := make(map[string]*peerHealth)
	h.peers.Store(&m)
	return h
}

// lookup returns the peer's entry without creating one.
func (h *healthTracker) lookup(addr string) *peerHealth {
	return (*h.peers.Load())[addr]
}

// peer returns the peer's entry, inserting one via copy-on-write when the
// address is new. Only the write paths (recordSuccess/recordFailure) call it;
// reads never allocate map copies.
func (h *healthTracker) peer(addr string) *peerHealth {
	if p := h.lookup(addr); p != nil {
		return p
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	old := *h.peers.Load()
	if p, ok := old[addr]; ok { // lost the insert race
		return p
	}
	next := make(map[string]*peerHealth, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	p := &peerHealth{}
	next[addr] = p
	h.peers.Store(&next)
	return p
}

// recordSuccess marks the peer alive.
func (h *healthTracker) recordSuccess(addr string) {
	if addr == "" {
		return
	}
	p := h.peer(addr)
	p.state.Store(int32(PeerAlive))
	p.fails.Store(0)
}

// recordFailure counts a consecutive failure, promoting the peer to suspect
// or dead when it crosses the thresholds.
func (h *healthTracker) recordFailure(addr string) {
	if addr == "" {
		return
	}
	p := h.peer(addr)
	fails := p.fails.Add(1)
	switch {
	case fails >= deadThreshold:
		p.state.Store(int32(PeerDead))
		p.probeAfter.Store(h.now().Add(deadProbation).UnixNano())
	case fails >= suspectThreshold:
		p.state.Store(int32(PeerSuspect))
		p.probeAfter.Store(h.now().Add(suspectProbation).UnixNano())
	}
}

// state returns the peer's current classification.
func (h *healthTracker) state(addr string) PeerState {
	p := h.lookup(addr)
	if p == nil {
		return PeerAlive
	}
	return PeerState(p.state.Load())
}

// answered reports, lock-free, whether the peer answered this node's last
// call to it: the node has called it (a peer known only from a hint or a
// notify has no entry), it is alive, and no call has failed since.
func (h *healthTracker) answered(addr string) bool {
	p := h.lookup(addr)
	return p != nil && PeerState(p.state.Load()) == PeerAlive && p.fails.Load() == 0
}

// preferred reports whether routing should rank the peer normally. Alive
// peers are preferred; suspect/dead peers are not — except once per probation
// window, when a single probe is let back through so recovered peers rejoin
// the routing set. The single probe is enforced with a compare-and-swap on
// the window's deadline: of any number of concurrent lookups racing on an
// expired window, exactly one wins the CAS (and pushes the window out), so
// they cannot all pile onto a possibly-dead peer. The call takes no locks.
func (h *healthTracker) preferred(addr string) bool {
	p := h.lookup(addr)
	if p == nil {
		return true
	}
	st := PeerState(p.state.Load())
	if st == PeerAlive {
		return true
	}
	pa := p.probeAfter.Load()
	now := h.now().UnixNano()
	if now <= pa {
		return false
	}
	window := suspectProbation
	if st == PeerDead {
		window = deadProbation
	}
	return p.probeAfter.CompareAndSwap(pa, now+int64(window))
}

// snapshot returns the non-alive peers and their states.
func (h *healthTracker) snapshot() map[string]string {
	out := make(map[string]string)
	for addr, p := range *h.peers.Load() {
		if st := PeerState(p.state.Load()); st != PeerAlive {
			out[addr] = st.String()
		}
	}
	return out
}
