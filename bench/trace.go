package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/transport"
)

// Spans are recorded from outside the program, at the two seams
// netnode.Config exposes: a transport.Transport wrapper and a
// canonstore.Store wrapper. The layers of one request nest like this:
//
//	op            the driver's call into netnode.Client
//	└ call        one transport Call (the client's, or a node forwarding)
//	  └ serve     the handler run that Call caused on the destination node
//	    ├ call …  RPCs the handler made (forwarded lookups)
//	    └ store   canonstore Put / Get / Sync / Delete under the handler
//
// A call's self time (call − serve) is the wire: both envelopes, mux
// framing, syscalls and dispatch. A serve's self time is netnode's handler.
type spanKind uint8

const (
	kindOp spanKind = iota
	kindCall
	kindServe
	kindStore
)

func (k spanKind) String() string { return [...]string{"op", "call", "serve", "store"}[k] }

type span struct {
	ID     uint64
	Parent uint64 // 0 = no cause recorded: background work
	Op     uint64 // the op span at the root of the tree; 0 = background
	Kind   spanKind
	Type   string // op kind, message type, or store method
	Node   string // address of the endpoint the span ran on
	Peer   string // call spans: destination address
	Nonce  string // call and serve spans: the request's nonce
	// Ambiguous marks a store span that more than one serve span could have
	// caused: two handlers that touch the store overlapped on its node.
	Ambiguous bool
	Start     int64 // ns since the recorder's epoch
	End       int64
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans in memory while on. The decorators stay in place
// for the whole life of the in-process cluster; off, they cost one atomic
// load per call.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64
	epoch  time.Time

	mu    sync.Mutex
	spans []span

	valueBytes atomic.Int64 // value bytes handed to Store.Put while on

	// The first captured messages, for the envelope codec replay. Requests
	// are captured where they are sent and responses where they are
	// produced: the only two places a Message still carries its typed Body.
	capMu    sync.Mutex
	captured []transport.Message
}

const captureLimit = 1000

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) capture(msg transport.Message) {
	r.capMu.Lock()
	if len(r.captured) < captureLimit {
		// netnode recycles forwarded lookup requests through a pool, so a
		// pointer body is copied before it is kept.
		if v := reflect.ValueOf(msg.Body); v.Kind() == reflect.Pointer && !v.IsNil() {
			c := reflect.New(v.Elem().Type())
			c.Elem().Set(v.Elem())
			msg.Body = c.Interface()
		}
		r.captured = append(r.captured, msg)
	}
	r.capMu.Unlock()
}

type parentKey struct{}

// withParent plants the span that causes whatever runs under ctx.
// netnode.Node.call passes the handler's context on to the transport, which
// is what links a forwarded call to the serve span it ran under.
func withParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// tracedTransport records a span per Call and per served request.
type tracedTransport struct {
	transport.Transport
	rec *recorder
}

func (t *tracedTransport) Call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	if !t.rec.on.Load() {
		return t.Transport.Call(ctx, addr, msg)
	}
	t.rec.capture(msg)
	s := span{
		ID: t.rec.nextID.Add(1), Parent: parentOf(ctx), Kind: kindCall, Type: msg.Type,
		Node: t.Addr(), Peer: addr, Nonce: msg.Nonce, Start: t.rec.now(),
	}
	resp, err := t.Transport.Call(ctx, addr, msg)
	s.End = t.rec.now()
	t.rec.add(s)
	return resp, err
}

func (t *tracedTransport) Serve(h transport.Handler) {
	t.Transport.Serve(func(ctx context.Context, from string, msg transport.Message) (transport.Message, error) {
		if !t.rec.on.Load() {
			return h(ctx, from, msg)
		}
		s := span{
			ID: t.rec.nextID.Add(1), Kind: kindServe, Type: msg.Type,
			Node: t.Addr(), Nonce: msg.Nonce, Start: t.rec.now(),
		}
		resp, err := h(withParent(ctx, s.ID), from, msg)
		s.End = t.rec.now()
		t.rec.add(s)
		if err == nil {
			t.rec.capture(resp)
		}
		return resp, err
	})
}

// tracedStore records a span per Put, Get, Sync and Delete.
type tracedStore struct {
	canonstore.Store
	rec  *recorder
	node string
}

func (s *tracedStore) record(method string, start int64) {
	s.rec.add(span{
		ID: s.rec.nextID.Add(1), Kind: kindStore, Type: method,
		Node: s.node, Start: start, End: s.rec.now(),
	})
}

func (s *tracedStore) Put(e canonstore.Entry) (bool, error) {
	if !s.rec.on.Load() {
		return s.Store.Put(e)
	}
	s.rec.valueBytes.Add(int64(len(e.Value)))
	defer s.record("put", s.rec.now())
	return s.Store.Put(e)
}

func (s *tracedStore) Get(key uint64, dst []canonstore.Entry) []canonstore.Entry {
	if !s.rec.on.Load() {
		return s.Store.Get(key, dst)
	}
	defer s.record("get", s.rec.now())
	return s.Store.Get(key, dst)
}

func (s *tracedStore) Sync() error {
	if !s.rec.on.Load() {
		return s.Store.Sync()
	}
	defer s.record("sync", s.rec.now())
	return s.Store.Sync()
}

func (s *tracedStore) Delete(key uint64, storage, access string, pointer bool) (bool, error) {
	if !s.rec.on.Load() {
		return s.Store.Delete(key, storage, access, pointer)
	}
	defer s.record("delete", s.rec.now())
	return s.Store.Delete(key, storage, access, pointer)
}

// link fills in what the decorators could not know when they recorded:
// each serve span's parent is the call span that caused it, matched by
// (destination address, nonce) and interval (a retried call re-uses its
// nonce, so the interval picks the attempt). A store call carries no
// context, so a store span's parent is the innermost serve span that
// encloses it on the same node and whose handler calls that store method;
// when two such handlers overlap (a replica push beside a client write) the
// choice is a guess and the span is marked Ambiguous. Then every span learns
// which op, if any, is at the root of its tree.
func link(spans []span) {
	type endpointNonce struct{ addr, nonce string }
	calls := make(map[endpointNonce][]int)
	serves := make(map[string][]int) // node → serve spans, by start time
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = i
		switch s.Kind {
		case kindCall:
			if s.Nonce != "" {
				k := endpointNonce{s.Peer, s.Nonce}
				calls[k] = append(calls[k], i)
			}
		case kindServe:
			serves[s.Node] = append(serves[s.Node], i)
		}
	}
	for _, list := range serves {
		sort.Slice(list, func(a, b int) bool { return spans[list[a]].Start < spans[list[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kindServe:
			best := -1
			for _, ci := range calls[endpointNonce{s.Node, s.Nonce}] {
				c := &spans[ci]
				if c.Start <= s.Start && s.End <= c.End && (best < 0 || c.Start > spans[best].Start) {
					best = ci
				}
			}
			if best >= 0 {
				s.Parent = spans[best].ID
			}
		case kindStore:
			list := serves[s.Node]
			// Walk back from the last serve span that started before this
			// one; handlers are short, so the encloser is a few steps away.
			at := sort.Search(len(list), func(j int) bool { return spans[list[j]].Start > s.Start })
			for j, steps := at-1, 0; j >= 0 && steps < 64; j, steps = j-1, steps+1 {
				if p := &spans[list[j]]; p.End >= s.End && storeCallers[s.Type][p.Type] {
					if s.Parent != 0 {
						s.Ambiguous = true
						break
					}
					s.Parent = p.ID
				}
			}
		}
	}
	for i := range spans {
		at := i
		for hops := 0; hops < 64; hops++ {
			s := &spans[at]
			if s.Kind == kindOp {
				spans[i].Op = s.ID
				break
			}
			next, ok := byID[s.Parent]
			if s.Parent == 0 || !ok {
				break
			}
			at = next
		}
	}
}

// storeCallers names, per store method, the message types whose handlers
// call it (netnode's handlers.go, storage.go and antientropy.go).
var storeCallers = map[string]map[string]bool{
	"put":    {"store": true, "store2": true, "repair": true},
	"sync":   {"store": true, "store2": true, "repair": true},
	"get":    {"fetch": true, "syncpull": true},
	"delete": {},
}

// selfTimes returns, per span, its duration minus the part of its interval
// its children cover. Children that overlap — which only a wrongly guessed
// store parent produces — are covered once, and the later store span's own
// time shrinks to the part it alone covers, so that the self times of a
// tree always sum to its root's duration.
func selfTimes(spans []span) []int64 {
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := make(map[int][]int)
	for i := range spans {
		if p, ok := byID[spans[i].Parent]; ok && spans[i].Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			part := max(hi-lo, 0)
			self[i] -= part
			covered = max(covered, hi)
			if spans[k].Kind == kindStore {
				self[k] = part
			}
		}
	}
	return self
}

// writeTrace writes the spans, one JSON object per line inside an array,
// with each span's self time.
func writeTrace(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i := range spans {
		s := &spans[i]
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"node":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}%s`+"\n",
			s.ID, s.Parent, s.Op, s.Kind.String()+"."+s.Type, s.Node, s.Start, s.End, self[i], sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
