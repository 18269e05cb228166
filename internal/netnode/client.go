package netnode

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// Client issues operations against a live network through any member node,
// acting on that node's behalf (its domain position governs storage and
// access checks). It is what command-line tools use to talk to a running
// canond.
//
// Every request carries a nonce, so receivers that deduplicate execute it at
// most once even when the network duplicates deliveries — which also keeps
// traced lookups from double-recording hop spans or metrics.
type Client struct {
	tr       transport.Transport
	nonceSeq atomic.Uint64
	window   atomic.Pointer[callWindow] // see bound
}

// callWindow is a deadline that requests made with context.Background
// share; see bound.
type callWindow struct {
	ctx      context.Context
	cancel   context.CancelFunc // never called: the window ends on its deadline
	deadline time.Time
}

// NewClient returns a client sending through the given transport. Its nonce
// sequence starts at the clock, not at zero: a short-lived client (one
// canonctl run) often lands on the ephemeral port an earlier one used, and
// a node that still remembers the earlier client's first nonce would answer
// the new client's first request with the old reply.
func NewClient(tr transport.Transport) *Client {
	c := &Client{tr: tr}
	c.nonceSeq.Store(uint64(uint32(time.Now().UnixNano())))
	return c
}

// clientCallTimeout bounds a client request whose ctx has no deadline of
// its own, so a peer that never answers cannot hold the caller forever. It
// is a backstop, well past what a routed operation takes on a live cluster:
// the nodes on the route bound each of their own attempts
// (RetryPolicy.AttemptTimeout).
const clientCallTimeout = 30 * time.Second

// call tags the message with a fresh nonce and sends it, bounded as bound
// says.
func (c *Client) call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	if msg.Nonce == "" {
		msg.Nonce = nonce(c.tr.Addr(), "#c", c.nonceSeq.Add(1))
	}
	ctx, cancel := c.bound(ctx)
	if cancel != nil {
		defer cancel()
	}
	return c.tr.Call(ctx, addr, msg)
}

// bound returns ctx when it has a deadline, and otherwise ctx bounded by
// clientCallTimeout. context.Background, what most callers pass, takes no
// timer per request: those requests share one window, a context whose
// deadline lies clientCallTimeout after it was made, replaced once less
// than half of that is left. Each is then bounded by between half of
// clientCallTimeout and all of it, and a request allocates nothing for it.
// Any other ctx may carry values or end early, so it gets its own timeout.
func (c *Client) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, nil
	}
	if ctx != context.Background() {
		return context.WithTimeout(ctx, clientCallTimeout)
	}
	now := time.Now()
	if w := c.window.Load(); w != nil && w.deadline.Sub(now) >= clientCallTimeout/2 {
		return w.ctx, nil
	}
	w := &callWindow{deadline: now.Add(clientCallTimeout)}
	w.ctx, w.cancel = context.WithDeadline(ctx, w.deadline)
	c.window.Store(w)
	return w.ctx, nil
}

// Ping returns the identity of the node at addr.
func (c *Client) Ping(ctx context.Context, addr string) (Info, error) {
	req, err := transport.NewMessage(msgPing, nil)
	if err != nil {
		return Info{}, err
	}
	resp, err := c.call(ctx, addr, req)
	if err != nil {
		return Info{}, err
	}
	var info Info
	if err := resp.Decode(&info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// Lookup asks the node at addr to resolve the owner of key within the
// domain named prefix, returning the owner and the hop count used.
func (c *Client) Lookup(ctx context.Context, addr string, key uint64, prefix string) (Info, int, error) {
	req, err := transport.NewMessage(msgLookup, lookupReq{Key: key, Prefix: prefix})
	if err != nil {
		return Info{}, 0, err
	}
	raw, err := c.call(ctx, addr, req)
	if err != nil {
		return Info{}, 0, err
	}
	var resp lookupResp
	if err := raw.Decode(&resp); err != nil {
		return Info{}, 0, err
	}
	return resp.Pred, resp.Hops, nil
}

// TracedLookup resolves the owner of key within prefix through the node at
// addr with distributed route tracing on: the returned trace holds one span
// per hop the lookup took, in path order. The entry node (the one at addr)
// archives the same trace in its TraceStore, so `/debug/trace/<id>` on that
// node's admin endpoint serves it afterwards. traceID may be empty, in which
// case a random one is drawn.
func (c *Client) TracedLookup(ctx context.Context, addr string, key uint64, prefix, traceID string) (Info, telemetry.Trace, error) {
	if traceID == "" {
		traceID = telemetry.NewTraceID(nil)
	}
	req, err := transport.NewMessage(msgLookup, lookupReq{Key: key, Prefix: prefix, routeHeader: routeHeader{Trace: traceID}})
	if err != nil {
		return Info{}, telemetry.Trace{}, err
	}
	raw, err := c.call(ctx, addr, req)
	if err != nil {
		return Info{}, telemetry.Trace{}, err
	}
	var resp lookupResp
	if err := raw.Decode(&resp); err != nil {
		return Info{}, telemetry.Trace{}, err
	}
	tr := telemetry.Trace{ID: traceID, Key: key, Prefix: prefix, Spans: resp.Spans}
	return resp.Pred, tr, nil
}

// Route says where a routed key-value operation was answered.
type Route struct {
	// Hops is the number of node-to-node forwards the operation's messages
	// took beyond the entry node (for a put with a pointer record, both
	// records' routes).
	Hops int
	// Level is the depth of the entry node's domain whose owner answered a
	// get: its chain depth for a hit in the leaf domain, 0 for the global
	// owner. Puts report the depth of the storage domain.
	Level int
}

// Put stores value under key with the given storage and access domains,
// routed through the node at addr: one put message, which that node
// validates (the storage domain must contain it) and sends down the route.
func (c *Client) Put(ctx context.Context, addr string, key uint64, value []byte, storagePath, accessPath string) error {
	_, err := c.PutRoute(ctx, addr, key, value, storagePath, accessPath)
	return err
}

// PutRoute is Put plus the route the write took.
func (c *Client) PutRoute(ctx context.Context, addr string, key uint64, value []byte, storagePath, accessPath string) (Route, error) {
	req, err := transport.NewMessage(msgPut, putReq{Key: key, Value: value, Storage: storagePath, Access: accessPath})
	if err != nil {
		return Route{}, err
	}
	raw, err := c.call(ctx, addr, req)
	if err != nil {
		return Route{}, err
	}
	var resp putResp
	if err := raw.Decode(&resp); err != nil {
		return Route{}, err
	}
	return Route{Hops: resp.Hops, Level: prefixLevel(storagePath)},
		putStatusErr(resp.Status, storagePath, accessPath, addr)
}

// Get retrieves the first value for key accessible to the node at addr: one
// get message, which walks that node's domains from the most local outward.
func (c *Client) Get(ctx context.Context, addr string, key uint64) ([]byte, error) {
	value, _, err := c.GetRoute(ctx, addr, key)
	return value, err
}

// GetRoute is Get plus where the answer came from.
func (c *Client) GetRoute(ctx context.Context, addr string, key uint64) ([]byte, Route, error) {
	req, err := transport.NewMessage(msgGet, getReq{Key: key})
	if err != nil {
		return nil, Route{}, err
	}
	raw, err := c.call(ctx, addr, req)
	if err != nil {
		return nil, Route{}, err
	}
	var resp getResp
	if err := raw.Decode(&resp); err != nil {
		return nil, Route{}, err
	}
	return resp.Value, Route{Hops: resp.Hops, Level: resp.Level}, statusErr(resp.Status)
}

// Repair asks the node at addr to run one replica anti-entropy round
// immediately and reports what it moved. Anti-entropy normally runs on the
// node's own maintenance schedule (Config.SyncInterval); Repair is the
// operator's on-demand trigger after an incident — bring a node back, run
// repair, read the push/pull counts to see the convergence happen.
func (c *Client) Repair(ctx context.Context, addr string) (AntiEntropyStats, error) {
	req, err := transport.NewMessage(msgRepair, nil)
	if err != nil {
		return AntiEntropyStats{}, err
	}
	raw, err := c.call(ctx, addr, req)
	if err != nil {
		return AntiEntropyStats{}, err
	}
	var resp repairResp
	if err := raw.Decode(&resp); err != nil {
		return AntiEntropyStats{}, err
	}
	return AntiEntropyStats{Partners: resp.Partners, Pushed: resp.Pushed, Pulled: resp.Pulled}, nil
}

// Neighbors returns the successor list and predecessor of the node at addr
// at the given level, for diagnostics.
func (c *Client) Neighbors(ctx context.Context, addr string, level int) (pred Info, succs []Info, err error) {
	req, err := transport.NewMessage(msgNeighbors, neighborsReq{Level: level})
	if err != nil {
		return Info{}, nil, err
	}
	raw, err := c.call(ctx, addr, req)
	if err != nil {
		return Info{}, nil, err
	}
	var resp neighborsResp
	if err := raw.Decode(&resp); err != nil {
		return Info{}, nil, err
	}
	return resp.Pred, resp.Succs, nil
}
