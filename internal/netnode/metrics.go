package netnode

import (
	"strconv"
	"sync"

	"github.com/canon-dht/canon/internal/telemetry"
)

// Metric names published by a live node. One canond process hosts one node,
// so names carry no node label; sharing a Registry across in-process nodes
// aggregates their series (see Config.Telemetry).
const (
	mnSent         = "canon_rpc_sent_total"
	mnReceived     = "canon_rpc_received_total"
	mnRetries      = "canon_rpc_retries_total"
	mnFailed       = "canon_rpc_failed_calls_total"
	mnRouteAround  = "canon_route_around_total"
	mnRPCLatency   = "canon_rpc_latency_seconds"
	mnRPCAttempts  = "canon_rpc_attempts"
	mnLookupHops   = "canon_lookup_hops"
	mnListAnswers  = "canon_lookup_list_answers_total"
	mnGetHops      = "canon_get_hops"
	mnPutHops      = "canon_put_hops"
	mnGetAnswered  = "canon_get_answered_total"
	mnTraceStarted = "canon_traces_started_total"
	mnTraceDone    = "canon_traces_completed_total"
	mnStoreWrites  = "canon_store_writes_total"
	mnFetchReads   = "canon_fetch_reads_total"
	mnStoreItems   = "canon_store_items"
	mnSuspects     = "canon_suspect_peers"
	mnFetchErrors  = "canon_fetch_errors_total"
	mnAERounds     = "canon_antientropy_rounds_total"
	mnAESyncs      = "canon_antientropy_syncs_total"
	mnAEPushed     = "canon_antientropy_keys_pushed_total"
	mnAEPulled     = "canon_antientropy_keys_pulled_total"
	mnReplDirty    = "canon_replica_dirty_keys"
	mnReplPushes   = "canon_replica_pushes_total"
	mnReplFailures = "canon_replica_push_failures_total"
	mnReplFull     = "canon_replica_full_passes_total"
	mnLeaveLost    = "canon_leave_handoff_failures_total"
	mnLeaveNotify  = "canon_leave_notify_failures_total"
	mnRegisterFail = "canon_register_failures_total"
	mnNotifyFail   = "canon_notify_failures_total"
	mnAESyncFail   = "canon_antientropy_sync_failures_total"
	mnOverruns     = "canon_maintenance_overruns_total"
)

// knownMsgTypes is every wire message type the node itself sends or serves.
// Their per-type counters are pre-registered at construction into immutable
// maps, so the RPC hot path looks them up without taking any lock; only
// unknown types (arbitrary bytes a fuzzer or a hostile peer puts in the Type
// field) fall back to the lazily populated, mutex-guarded overflow maps.
var knownMsgTypes = [...]string{
	msgLookup, msgNeighbors, msgNotify, msgPing,
	msgFetch, msgRegister, msgMembers, msgLeaving,
	msgStoreV2, msgSyncTree, msgSyncKeys, msgSyncPull, msgRepair,
	msgBucketRef, msgLookahead,
	msgGet, msgPut,
}

// nodeMetrics holds the node's cached handles into its telemetry registry.
type nodeMetrics struct {
	reg *telemetry.Registry

	retries      *telemetry.Counter
	failedCalls  *telemetry.Counter
	routedAround *telemetry.Counter
	rpcLatency   *telemetry.Histogram
	rpcAttempts  *telemetry.Histogram
	lookupHops   *telemetry.Histogram
	listAnswers  *telemetry.Counter
	getHops      *telemetry.Histogram
	putHops      *telemetry.Histogram
	traceStarted *telemetry.Counter
	traceDone    *telemetry.Counter
	storeWrites  *telemetry.Counter
	fetchReads   *telemetry.Counter
	storeItems   *telemetry.Gauge
	suspects     *telemetry.Gauge

	fetchErrors       *telemetry.Counter
	antiEntropyRounds *telemetry.Counter
	antiEntropySyncs  *telemetry.Counter
	antiEntropyPushed *telemetry.Counter
	antiEntropyPulled *telemetry.Counter

	replicaDirty         *telemetry.Gauge
	replicaPushChain     *telemetry.Counter
	replicaPushHandoff   *telemetry.Counter
	replicaPushFailures  *telemetry.Counter
	replicaFullPasses    *telemetry.Counter
	leaveHandoffFailures *telemetry.Counter

	// Ring maintenance and repair retry every round, so their failures are
	// not passed up; these count them so they are not silent either.
	leaveNotifyFailures     *telemetry.Counter
	registerFailures        *telemetry.Counter
	notifyFailures          *telemetry.Counter
	antiEntropySyncFailures *telemetry.Counter
	maintenanceOverruns     *telemetry.Counter

	// answered[l] counts the gets entered at this node that the level-l owner
	// answered; answeredNone those that found nothing. Both are immutable
	// after construction, like the per-type maps below.
	answered     []*telemetry.Counter
	answeredNone *telemetry.Counter

	// sentFixed/receivedFixed are immutable after construction: read-only
	// map lookups are safe for unsynchronized concurrent use.
	sentFixed     map[string]*telemetry.Counter
	receivedFixed map[string]*telemetry.Counter

	mu       sync.Mutex
	sent     map[string]*telemetry.Counter // unknown types only
	received map[string]*telemetry.Counter
}

func newNodeMetrics(reg *telemetry.Registry, levels int) *nodeMetrics {
	m := &nodeMetrics{
		reg:          reg,
		retries:      reg.Counter(mnRetries, "re-send attempts beyond each call's first"),
		failedCalls:  reg.Counter(mnFailed, "calls that exhausted every attempt"),
		routedAround: reg.Counter(mnRouteAround, "routed forwards (lookup, get, put) that skipped a distrusted best candidate"),
		rpcLatency:   reg.Histogram(mnRPCLatency, "outgoing RPC latency per completed call, seconds", telemetry.DefBuckets),
		rpcAttempts:  reg.Histogram(mnRPCAttempts, "transport attempts used per RPC call", telemetry.AttemptBuckets),
		lookupHops:   reg.Histogram(mnLookupHops, "forwarding hops per lookup answered for a local or remote originator", telemetry.HopBuckets),
		listAnswers:  reg.Counter(mnListAnswers, "lookups this node answered for the owner from its successor list instead of forwarding"),
		traceStarted: reg.Counter(mnTraceStarted, "route traces originated by this node"),
		traceDone:    reg.Counter(mnTraceDone, "route traces completed and archived at this node"),
		storeWrites:  reg.Counter(mnStoreWrites, "local store writes (values, pointers and replicas)"),
		fetchReads:   reg.Counter(mnFetchReads, "local fetch reads served"),
		storeItems:   reg.Gauge(mnStoreItems, "distinct keys currently stored"),
		suspects:     reg.Gauge(mnSuspects, "peers the failure detector currently distrusts"),
		fetchErrors:  reg.Counter(mnFetchErrors, "pointer records a get could not resolve at the storing node"),
		getHops:      reg.Histogram(mnGetHops, "forwarding hops per routed get entered at this node", telemetry.HopBuckets),
		putHops:      reg.Histogram(mnPutHops, "forwarding hops per routed put entered at this node, pointer record included", telemetry.HopBuckets),
		antiEntropyRounds: reg.Counter(mnAERounds,
			"anti-entropy rounds completed (every level and replica partner)"),
		antiEntropySyncs: reg.Counter(mnAESyncs,
			"anti-entropy scope comparisons whose Merkle roots diverged"),
		antiEntropyPushed: reg.Counter(mnAEPushed,
			"records pushed to replica partners by anti-entropy repair"),
		antiEntropyPulled: reg.Counter(mnAEPulled,
			"records pulled from replica partners by anti-entropy repair"),
		replicaDirty: reg.Gauge(mnReplDirty,
			"keys with pending replication work (written since the last round, or a push failed)"),
		replicaPushChain:   replicaPushes(reg, "chain"),
		replicaPushHandoff: replicaPushes(reg, "handoff"),
		replicaPushFailures: reg.Counter(mnReplFailures,
			"keys a replication round re-queued because a push for them failed"),
		replicaFullPasses: reg.Counter(mnReplFull,
			"replication rounds that re-queued every stored key because the node's ring neighbors changed"),
		leaveHandoffFailures: reg.Counter(mnLeaveLost,
			"stored records a graceful leave could not hand to their next owner"),
		leaveNotifyFailures: reg.Counter(mnLeaveNotify,
			"leaving notices not delivered: per-level neighbors a graceful leave could not tell it was going, and predecessors a passed-on notice did not reach"),
		registerFailures: reg.Counter(mnRegisterFail,
			"domain registry registrations that failed: the registry owner was not found or not reached"),
		notifyFailures: reg.Counter(mnNotifyFail,
			"ring-neighbor notifications (join and stabilization) the neighbor did not acknowledge"),
		antiEntropySyncFailures: reg.Counter(mnAESyncFail,
			"anti-entropy level walks ended early by a failed comparison or repair with a replica partner"),
		maintenanceOverruns: reg.Counter(mnOverruns,
			"maintenance jobs (stabilization, finger refresh, lookahead) stopped because their own context ended, keeping the ring state they started with"),
		sentFixed:     make(map[string]*telemetry.Counter, len(knownMsgTypes)),
		receivedFixed: make(map[string]*telemetry.Counter, len(knownMsgTypes)),
		sent:          make(map[string]*telemetry.Counter),
		received:      make(map[string]*telemetry.Counter),
	}
	const answeredHelp = "routed gets entered at this node, by the hierarchy level whose owner answered (none = not found)"
	for l := 0; l <= levels; l++ {
		m.answered = append(m.answered, reg.Counter(mnGetAnswered, answeredHelp, telemetry.L("level", strconv.Itoa(l))))
	}
	m.answeredNone = reg.Counter(mnGetAnswered, answeredHelp, telemetry.L("level", "none"))
	for _, t := range knownMsgTypes {
		m.sentFixed[t] = reg.Counter(mnSent, "outgoing requests by message type (first attempts only)",
			telemetry.L("type", t))
		m.receivedFixed[t] = reg.Counter(mnReceived, "incoming requests by message type",
			telemetry.L("type", t))
	}
	return m
}

// replicaPushes registers the replication push counter of one kind: chain
// replicas or ownership handoffs.
func replicaPushes(reg *telemetry.Registry, kind string) *telemetry.Counter {
	return reg.Counter(mnReplPushes, "records the replication round pushed, by kind", telemetry.L("kind", kind))
}

// getAnswered returns the counter for a get answered at the given level of
// the entry node's chain; anything else (not found reports -1) is "none".
func (m *nodeMetrics) getAnswered(level int) *telemetry.Counter {
	if level < 0 || level >= len(m.answered) {
		return m.answeredNone
	}
	return m.answered[level]
}

// sentCounter returns the outgoing-request counter for a message type. Known
// types resolve lock-free through the immutable map.
func (m *nodeMetrics) sentCounter(msgType string) *telemetry.Counter {
	if c, ok := m.sentFixed[msgType]; ok {
		return c
	}
	m.mu.Lock()
	c, ok := m.sent[msgType]
	if !ok {
		c = m.reg.Counter(mnSent, "outgoing requests by message type (first attempts only)",
			telemetry.L("type", msgType))
		m.sent[msgType] = c
	}
	m.mu.Unlock()
	return c
}

// receivedCounter returns the incoming-request counter for a message type.
// Known types resolve lock-free through the immutable map.
func (m *nodeMetrics) receivedCounter(msgType string) *telemetry.Counter {
	if c, ok := m.receivedFixed[msgType]; ok {
		return c
	}
	m.mu.Lock()
	c, ok := m.received[msgType]
	if !ok {
		c = m.reg.Counter(mnReceived, "incoming requests by message type",
			telemetry.L("type", msgType))
		m.received[msgType] = c
	}
	m.mu.Unlock()
	return c
}

// counterSnapshot merges a fixed and an overflow counter map into per-type
// counts, skipping zero-valued series: pre-registered counters for types the
// node never actually sent or served must not surface in Stats (which
// historically only listed observed types).
func (m *nodeMetrics) counterSnapshot(fixed, lazy map[string]*telemetry.Counter) map[string]int64 {
	out := make(map[string]int64, len(fixed))
	for k, c := range fixed {
		if v := c.Value(); v != 0 {
			out[k] = v
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, c := range lazy {
		if v := c.Value(); v != 0 {
			out[k] = v
		}
	}
	return out
}

// sentSnapshot copies the per-type sent counts (the Stats bridge).
func (m *nodeMetrics) sentSnapshot() map[string]int64 {
	return m.counterSnapshot(m.sentFixed, m.sent)
}

// receivedSnapshot copies the per-type received counts.
func (m *nodeMetrics) receivedSnapshot() map[string]int64 {
	return m.counterSnapshot(m.receivedFixed, m.received)
}
