package netnode

import (
	"context"
	"errors"
	"strconv"
	"time"

	"github.com/canon-dht/canon/internal/transport"
)

// RetryPolicy governs how Node.call re-sends failed RPCs. The zero value is
// replaced by defaults in New: 3 attempts, 5ms base backoff doubling to a
// 100ms cap with jitter, and a 2s per-attempt timeout.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (first send
	// included). Values below 1 mean the default of 3; 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (exponential backoff), up to MaxBackoff. The actual sleep
	// is jittered uniformly in [backoff/2, backoff).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt; the caller's context
	// still bounds the whole call. Values <= 0 mean the default of 2s: every
	// attempt is bounded, which is what lets maintenance rounds run without
	// a deadline of their own (see Node.maintainLoop).
	AttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 2 * time.Second
	}
	return p
}

// Stats is a snapshot of a node's wire-traffic and resilience counters.
// Useful for verifying protocol costs (e.g. O(log n) lookups) and failure
// handling on live deployments. Since PR 2 the counters live in the node's
// telemetry registry (see Telemetry()); Stats is a stable bridge reading the
// same registry series, so existing callers keep working unchanged.
type Stats struct {
	// Sent counts outgoing requests by message type (first attempts only).
	Sent map[string]int64
	// Received counts incoming requests by message type.
	Received map[string]int64
	// Retries counts re-send attempts beyond each call's first.
	Retries int64
	// FailedCalls counts calls that exhausted every attempt.
	FailedCalls int64
	// RoutedAround counts forwarding decisions — of lookups, gets and puts
	// alike — where a suspect/dead best candidate was ranked behind a
	// healthy one.
	RoutedAround int64
	// SuspectPeers maps peer address to "suspect" or "dead" for peers the
	// failure detector currently distrusts.
	SuspectPeers map[string]string
}

// call wraps the transport send with the node's resilience machinery: it
// counts the outgoing message, tags it with a nonce (so receivers that
// deduplicate execute it at most once across retries and duplicated
// deliveries), bounds each attempt, and retries transport-level failures
// with exponential backoff and jitter while honoring the caller's context,
// until the failure detector marks the peer dead. Every outcome feeds the per-peer failure detector, except a failure the
// caller's own context caused: that says nothing about the peer.
func (n *Node) call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	if msg.Nonce == "" {
		msg.Nonce = nonce(n.self.Addr, "#", n.nonceSeq.Add(1))
	}
	n.m.sentCounter(msg.Type).Inc()
	start := time.Now()

	pol := n.retry
	var lastErr error
	attempts := 0
	defer func() {
		n.m.rpcAttempts.Observe(float64(attempts))
		n.m.rpcLatency.Observe(time.Since(start).Seconds())
	}()
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			n.m.retries.Inc()
			backoff := pol.BaseBackoff << (attempt - 1)
			if backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
			backoff = backoff/2 + n.jitter(backoff/2)
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				n.m.failedCalls.Inc()
				return transport.Message{}, ctx.Err()
			}
		}
		attempts = attempt + 1
		attemptCtx, cancel := context.WithTimeout(ctx, pol.AttemptTimeout)
		resp, err := n.tr.Call(attemptCtx, addr, msg)
		cancel()
		if err == nil {
			n.health.recordSuccess(addr)
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller's own deadline, not evidence against the peer
		}
		n.health.recordFailure(addr)
		if errors.Is(err, transport.ErrClosed) {
			break // the transport is gone: stop early
		}
		if n.health.state(addr) == PeerDead {
			break // the failure detector gave up on it: backing off buys nothing
		}
	}
	n.m.failedCalls.Inc()
	return transport.Message{}, lastErr
}

// nonce builds "<addr><sep><hex seq>" by hand: one string allocation
// instead of the fmt machinery, since every forwarded hop passes through
// Node.call.
func nonce(addr, sep string, seq uint64) string {
	var scratch [64]byte
	b := append(scratch[:0], addr...)
	b = append(b, sep...)
	return string(strconv.AppendUint(b, seq, 16))
}

// tell sends a request whose reply carries no body and reports a transport
// failure and the peer's error reply alike. Ring maintenance repeats itself
// every round, so its callers do not pass a lost message up — they count it.
func (n *Node) tell(ctx context.Context, addr, msgType string, body any) error {
	msg, err := transport.NewMessage(msgType, body)
	if err != nil {
		return err
	}
	resp, err := n.call(ctx, addr, msg)
	if err != nil {
		return err
	}
	return resp.Err()
}

// notify tells the node at addr that this node may be its predecessor — or,
// with AsSuccessor set, its successor — at a level.
func (n *Node) notify(ctx context.Context, addr string, req notifyReq) {
	if err := n.tell(ctx, addr, msgNotify, req); err != nil {
		n.m.notifyFailures.Inc()
	}
}

// jitter draws a uniform duration in [0, max) from the node's RNG.
func (n *Node) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Duration(n.rng.Int63n(int64(max)))
}

// countReceived tallies an incoming request. It runs inside the nonce-dedup
// wrapper, so replayed duplicates never double-count.
func (n *Node) countReceived(msgType string) {
	n.m.receivedCounter(msgType).Inc()
}

// Health returns the failure detector's classification of a peer address.
func (n *Node) Health(addr string) PeerState { return n.health.state(addr) }

// Stats returns a copy of the node's traffic and resilience counters, read
// from the telemetry registry.
func (n *Node) Stats() Stats {
	out := Stats{
		Sent:         n.m.sentSnapshot(),
		Received:     n.m.receivedSnapshot(),
		Retries:      n.m.retries.Value(),
		FailedCalls:  n.m.failedCalls.Value(),
		RoutedAround: n.m.routedAround.Value(),
		SuspectPeers: n.health.snapshot(),
	}
	n.m.suspects.Set(float64(len(out.SuspectPeers)))
	return out
}
