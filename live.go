package canon

import (
	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// Live-deployment aliases: a real Crescendo node with joins, per-level
// successor lists, stabilization and hierarchical put/get (Section 2.3).
type (
	// LiveNode is a networked Crescendo participant.
	LiveNode = netnode.Node
	// LiveConfig configures a LiveNode.
	LiveConfig = netnode.Config
	// LiveInfo identifies a live node on the wire.
	LiveInfo = netnode.Info
	// LiveClient issues operations against a live network through any
	// member node.
	LiveClient = netnode.Client
	// LiveStatus is the JSON status snapshot a node serves over HTTP.
	LiveStatus = netnode.Status
	// LiveStats carries a node's traffic and resilience counters.
	LiveStats = netnode.Stats
	// LiveRetryPolicy governs RPC retry/backoff behavior of a LiveNode.
	LiveRetryPolicy = netnode.RetryPolicy
	// LiveStore is the storage engine behind a LiveNode's items; pass one
	// as LiveConfig.Store. Nil means a volatile in-memory store.
	LiveStore = canonstore.Store
	// LiveStoreOptions tunes a durable on-disk store (see OpenLiveStore).
	LiveStoreOptions = canonstore.Options
	// LiveRepairStats reports one replica anti-entropy round's work:
	// partners contacted, records pushed and pulled.
	LiveRepairStats = netnode.AntiEntropyStats
	// Transport carries a live node's traffic.
	Transport = transport.Transport
	// Bus is an in-memory network for tests and simulations.
	Bus = transport.Bus
	// FaultyTransport wraps any Transport with deterministic, seeded fault
	// injection: drops, delays, duplicates and per-peer partitions.
	FaultyTransport = transport.Faulty
	// TransportFaults configures a FaultyTransport's failure model.
	TransportFaults = transport.Faults
	// MetricsRegistry is the lock-sharded telemetry registry live nodes and
	// transports publish counters, gauges and histograms into; it serves
	// itself in Prometheus text format via Handler or WritePrometheus.
	MetricsRegistry = telemetry.Registry
	// RouteTrace is one completed traced lookup: per-hop span records.
	RouteTrace = telemetry.Trace
	// RouteSpan is one hop's evidence inside a RouteTrace.
	RouteSpan = telemetry.Span
	// RouteTraceStore is the bounded ring buffer of completed traces a node
	// archives into (served at /debug/trace/ by canond).
	RouteTraceStore = telemetry.TraceStore
)

// Live-node errors.
var (
	// ErrLiveNotFound is returned by LiveNode.Get for absent keys.
	ErrLiveNotFound = netnode.ErrNotFound
	// ErrLiveBadDomain is returned for invalid storage/access domains.
	ErrLiveBadDomain = netnode.ErrBadDomain
)

// NewLiveNode creates a live node; call Join to enter a network.
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) { return netnode.New(cfg) }

// NewLiveClient returns a client sending through the given transport.
func NewLiveClient(tr Transport) *LiveClient { return netnode.NewClient(tr) }

// OpenLiveStore opens (creating it if needed) the durable log-structured
// store rooted at dir — canond's -data-dir engine (docs/STORAGE.md). The
// returned store recovers every previously acknowledged write from its
// write-ahead log; pass it as LiveConfig.Store, and the node will own and
// close it.
func OpenLiveStore(dir string, opts LiveStoreOptions) (LiveStore, error) {
	return canonstore.Open(dir, opts)
}

// NewBus returns an in-memory network for running live nodes in-process.
func NewBus() *Bus { return transport.NewBus() }

// NewFaultyTransport wraps inner with seeded deterministic fault injection;
// see transport.NewFaulty.
func NewFaultyTransport(inner Transport, seed int64, def TransportFaults) *FaultyTransport {
	return transport.NewFaulty(inner, seed, def)
}

// NewMetricsRegistry returns an empty telemetry registry; pass it as
// LiveConfig.Telemetry and to InstrumentTransport so one /metrics endpoint
// exposes both node- and wire-level series.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// InstrumentTransport wraps inner so its calls and served requests are
// measured into reg; see transport.WithTelemetry.
func InstrumentTransport(inner Transport, reg *MetricsRegistry) Transport {
	return transport.WithTelemetry(inner, reg)
}

// ListenTCP starts a TCP transport for a live node ("host:port"; ":0" picks
// a free port), speaking the multiplexed binary protocol of docs/WIRE.md.
func ListenTCP(addr string) (Transport, error) { return transport.ListenTCP(addr) }

// TCPTransportOptions names the telemetry registry that receives a TCP
// transport's canon_transport_mux_* series. See transport.TCPOptions.
type TCPTransportOptions = transport.TCPOptions

// ListenTCPOpts starts a TCP transport with explicit options.
func ListenTCPOpts(addr string, opts TCPTransportOptions) (Transport, error) {
	return transport.ListenTCPOpts(addr, opts)
}
