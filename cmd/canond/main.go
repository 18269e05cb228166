// Command canond runs a live Crescendo node: it listens on a TCP address,
// joins a network through an optional contact, and serves hierarchical
// lookups and put/get until interrupted.
//
// Usage:
//
//	canond -listen :7001 -domain stanford/cs/db [-join host:port] [-id N]
//
// With -data-dir set, the node stores its items in a durable log-structured
// engine rooted at that directory: every acknowledged write is fsynced
// before the ack and survives a crash or restart of the same directory
// (docs/STORAGE.md). With -replicas N (N >= 2), each write is pushed to the
// owner's N-1 predecessors on the stabilization round after it — and every
// stored item again when the node's ring neighbors change — and replicas
// are repaired by Merkle anti-entropy on the -sync-interval schedule.
//
// On SIGINT or SIGTERM the node leaves gracefully: it hands every stored
// record to the record's next owner and tells its neighbors to splice it
// out. A record it could not hand off — the next owner unreachable, or no
// other node in the record's domain — is counted
// (canon_leave_handoff_failures_total) and canond exits non-zero saying how
// many there were; a neighbor it could not tell is counted too
// (canon_leave_notify_failures_total). The maintenance it retries every round
// rather than fail — registry registration, ring notifications, anti-entropy
// comparisons — counts what went wrong in canon_register_failures_total,
// canon_notify_failures_total and canon_antientropy_sync_failures_total; a
// round cut short by shutdown keeps its ring state and counts
// canon_maintenance_overruns_total.
//
// There is one wire protocol (docs/WIRE.md), so nothing selects one: -wire
// survives only because bench/cluster.go passes "-wire binary", and any
// other value is refused.
//
// With -admin set, the node also serves an HTTP observability endpoint:
//
//	/metrics        — telemetry registry in Prometheus text format
//	/status         — node status snapshot as JSON (canonctl status reads it)
//	/debug/trace/   — recent route traces; /debug/trace/<id> for one
//	/debug/pprof/   — standard net/http/pprof profiles
//
// Use canonctl to issue puts, gets, lookups and traced lookups against a
// running node.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	canon "github.com/canon-dht/canon"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "canond:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("canond", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", ":7001", "TCP listen address")
		domain    = fs.String("domain", "", "hierarchical domain name, e.g. stanford/cs/db")
		geometry  = fs.String("geometry", "", "routing geometry: crescendo, kandy or cacophony (empty = crescendo); mixed-geometry clusters stay correct")
		join      = fs.String("join", "", "address of an existing node to join through")
		nodeID    = fs.Uint64("id", 0, "node identifier (0 = random)")
		stabevery = fs.Duration("stabilize", 2*time.Second, "stabilization interval")
		succlist  = fs.Int("successors", 4, "per-level successor list length")
		replicas  = fs.Int("replicas", 1, "copies of each stored item (1 = no replication)")
		dataDir   = fs.String("data-dir", "", "directory for the durable storage engine; acked writes survive crashes and restarts (empty = volatile in-memory store)")
		syncEvery = fs.Duration("sync-interval", 0, "target period between replica anti-entropy rounds (0 = every fourth stabilization tick; needs -replicas >= 2)")
		admin     = fs.String("admin", "", "HTTP admin address serving /metrics, /status, /debug/trace/ and /debug/pprof/ (empty = off)")
		sample    = fs.Float64("trace-sample", 0, "fraction of the lookups, gets and puts this node itself originates sampled into route traces, 0..1 (client requests are traced only when the client asks)")
		wire      = fs.String("wire", "binary", "vestige: only \"binary\" is accepted; kept because bench/cluster.go still passes it")
		retries   = fs.Int("retries", 0, "RPC attempts per call (0 = default of 3, 1 = no retries)")
		backoff   = fs.Duration("retry-backoff", 0, "base retry backoff (0 = default 5ms; doubles per retry)")
		loss      = fs.Float64("inject-loss", 0, "drop this fraction of outgoing RPCs (soak testing; 0 = off)")
		faultSeed = fs.Int64("fault-seed", 1, "seed for the injected fault schedule")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sample < 0 || *sample > 1 {
		return fmt.Errorf("-trace-sample must be in [0,1], got %g", *sample)
	}

	if *wire != "binary" {
		return fmt.Errorf("-wire %s: the JSON wire was removed; the binary mux is the only protocol (docs/WIRE.md)", *wire)
	}

	// One registry carries wire-level series (the mux counters from the TCP
	// transport itself plus the instrumented wrapper) and node-level series
	// (via LiveConfig.Telemetry); /metrics serves all of them.
	reg := canon.NewMetricsRegistry()
	tr, err := canon.ListenTCPOpts(*listen, canon.TCPTransportOptions{Telemetry: reg})
	if err != nil {
		return err
	}
	tr = canon.InstrumentTransport(tr, reg)
	if *loss < 0 || *loss >= 1 {
		_ = tr.Close()
		return fmt.Errorf("-inject-loss must be in [0,1), got %g", *loss)
	}
	if *loss > 0 {
		fmt.Fprintf(os.Stderr, "canond: WARNING: injecting %.0f%% message loss (seed %d)\n", *loss*100, *faultSeed)
		tr = canon.NewFaultyTransport(tr, *faultSeed, canon.TransportFaults{Drop: *loss})
	}
	var store canon.LiveStore
	if *dataDir != "" {
		store, err = canon.OpenLiveStore(*dataDir, canon.LiveStoreOptions{Telemetry: reg})
		if err != nil {
			_ = tr.Close()
			return fmt.Errorf("open -data-dir: %w", err)
		}
	}
	cfg := canon.LiveConfig{
		Name:              *domain,
		Geometry:          *geometry,
		Transport:         tr,
		SuccessorListLen:  *succlist,
		ReplicationFactor: *replicas,
		Store:             store,
		SyncInterval:      *syncEvery,
		Retry: canon.LiveRetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *backoff,
		},
		Telemetry:       reg,
		TraceSampleRate: *sample,
	}
	if *nodeID != 0 {
		cfg.ID = *nodeID
	} else {
		cfg.RandomID = true
	}
	node, err := canon.NewLiveNode(cfg)
	if err != nil {
		if store != nil {
			_ = store.Close()
		}
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = node.Join(ctx, *join)
	cancel()
	if err != nil {
		_ = node.Close()
		return fmt.Errorf("join: %w", err)
	}
	node.Start(*stabevery)

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = &http.Server{Addr: *admin, Handler: adminMux(node, reg)}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "canond: admin server:", err)
			}
		}()
	}

	info := node.Info()
	fmt.Printf("canond: node %d (%q) listening on %s\n", info.ID, info.Name, info.Addr)
	if *admin != "" {
		fmt.Printf("canond: admin at http://%s/metrics (plus /status, /debug/trace/, /debug/pprof/)\n", *admin)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Println("canond: leaving gracefully")
	leaveCtx, cancelLeave := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLeave()
	if adminSrv != nil {
		_ = adminSrv.Shutdown(leaveCtx)
	}
	return node.Leave(leaveCtx)
}

// adminMux assembles the node's observability endpoint: Prometheus metrics,
// the JSON status snapshot, recent route traces, and pprof — stdlib only.
func adminMux(node *canon.LiveNode, reg *canon.MetricsRegistry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/status", node)
	mux.Handle("/debug/trace/", node.TraceStore().Handler("/debug/trace/"))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
