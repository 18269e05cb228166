// Wire message types and domain-name helpers; the package documentation
// lives in doc.go.
package netnode

import (
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/telemetry"
)

// Info identifies a live node on the wire.
type Info struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// IsZero reports whether the Info is unset.
func (i Info) IsZero() bool { return i.Addr == "" }

// Message type identifiers.
const (
	msgLookup    = "lookup"
	msgNeighbors = "neighbors"
	msgNotify    = "notify"
	msgPing      = "ping"
	msgFetch     = "fetch"
	msgRegister  = "register"
	msgMembers   = "members"
	msgLeaving   = "leaving"
)

// The versioned store and the replica anti-entropy protocol (docs/WIRE.md
// §8).
const (
	msgStoreV2  = "store2"
	msgSyncTree = "synctree"
	msgSyncKeys = "synckeys"
	msgSyncPull = "syncpull"
	msgRepair   = "repair"
)

// The geometry maintenance protocol (docs/WIRE.md §9): Kandy's
// bucket-refresh probe and Cacophony's lookahead neighbor exchange. Nodes
// serve both regardless of their own geometry, so a mixed cluster keeps every
// side's links fresh.
const (
	msgBucketRef = "bucketref"
	msgLookahead = "lookahead"
)

// The routed key-value operations (docs/WIRE.md §10). One get or put travels
// the paper's bottom-up route (Section 4.1) node to node and is answered
// where it lands; they are the only implementation of Get and Put, for nodes
// and clients alike.
const (
	msgGet = "get"
	msgPut = "put"
)

// Reply status of a routed get or put. A status is an answer, carried in the
// body so it survives the wire as a value: the client maps it back to
// ErrNotFound / ErrBadDomain and errors.Is keeps working across processes.
// An error reply is never an answer: the sender routes around it like an
// unreachable candidate (a node shutting down, a hop-limit overrun). So a
// store failure at the owner, which must not become an ack from the next
// candidate, is a status too.
const (
	statusOK        = 0
	statusNotFound  = 1
	statusBadDomain = 2
	// statusNotDurable: the owner could not make the write durable.
	statusNotDurable = 3
)

// statusErr maps a reply status to the package's sentinel errors.
func statusErr(status int) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return ErrNotFound
	case statusBadDomain:
		return ErrBadDomain
	case statusNotDurable:
		return errNotDurable
	}
	return fmt.Errorf("netnode: unknown reply status %d", status)
}

// routeHeader is the route state every routed body — lookup, get and put,
// request and response — ends with. Hops counts the forwards taken so far;
// 0 marks the node the route entered at.
//
// Trace, when non-empty, is a distributed trace context: every node the
// message passes through appends one telemetry.Span to Spans before
// forwarding, and the node that answers appends a terminal Owner span. The
// span list rides the request and returns to the originator inside the
// response, so the route's per-hop evidence — node, domain, routing level,
// route-arounds — costs no extra messages.
type routeHeader struct {
	Hops int
	// Trace is the trace identifier; empty means the route is untraced.
	Trace string
	// Spans accumulates one record per hop already taken.
	Spans []telemetry.Span
}

// header returns the route header of the routed body it is embedded in.
func (h *routeHeader) header() *routeHeader { return h }

// lookupReq asks for the predecessor (owner) and successor of Key among the
// nodes of the domain named by Prefix ("" = the whole system).
type lookupReq struct {
	Key    uint64
	Prefix string
	routeHeader
}

type lookupResp struct {
	Pred Info
	Succ Info
	routeHeader
}

// neighborsReq asks for a node's neighbor state at one level.
type neighborsReq struct {
	Level int
}

type neighborsResp struct {
	Pred  Info
	Succs []Info
}

// notifyReq tells a node that From may be its predecessor at Level, or —
// with AsSuccessor set — that From belongs in its successor list there (the
// paper's eager notification of nodes that would otherwise erroneously skip
// a joiner). An AsSuccessor receiver inserts From at its clockwise rank and,
// when From entered the list, passes the same request on to its own
// predecessor at Level; the chain stops where From no longer fits, so the
// layout carries no hop count (handleNotify).
type notifyReq struct {
	Level       int
	From        Info
	AsSuccessor bool
}

// storeBatch is the store2 request: records moving from node to node —
// replica pushes, handoffs, a leaver's items, anti-entropy repairs — one
// batch per destination (fresh writes arrive as a routed putReq). The
// receiver checks every record, applies them all and runs one durability
// barrier before its empty ack, which promises every record in the batch.
type storeBatch struct {
	Entries []storeRecord
}

// storeRecord is one key-value pair (or a pointer to one) with the write
// version the storage engine orders writes by: an entry of a store2 batch
// and of a syncpull response. Version 0 asks the receiver to stamp one;
// replica pushes, handoffs and anti-entropy repairs carry the origin's
// version verbatim so the record's history survives the transfer.
type storeRecord struct {
	Key     uint64
	Value   []byte
	Storage string
	Access  string
	// Pointer, when set, is the node actually holding the value.
	Pointer Info
	// Replica marks a transferred copy — a replica push, a handoff or a
	// repair; the receiver replicates it on only when it owns the record
	// (mustPropagate).
	Replica bool
	Version uint64
}

// syncTreeReq asks a replica for its Merkle summary of one sync scope: the
// entries whose home domain is Prefix with keys in the clockwise range [Lo, Hi) (Lo == Hi means the whole ring). Both sides
// compute the scope by the same rule, so the summaries are comparable.
type syncTreeReq struct {
	Prefix string
	Lo     uint64
	Hi     uint64
}

// syncTreeResp is the sealed summary: canonstore.MerkleLeaves leaf digests
// plus the root folded over them.
type syncTreeResp struct {
	Root   uint64
	Leaves []uint64
}

// syncKeysReq asks for the per-record identities and digests in the listed
// divergent Merkle buckets of a sync scope.
type syncKeysReq struct {
	Prefix  string
	Lo      uint64
	Hi      uint64
	Buckets []int
}

// syncItem names one stored record and its (Version, Digest) conflict
// position, without the value bytes — values only travel for records that
// actually differ.
type syncItem struct {
	Key     uint64
	Storage string
	Access  string
	Pointer bool
	Version uint64
	Digest  uint64
}

type syncKeysResp struct {
	Items []syncItem
}

// syncPullReq retrieves the full entries a peer holds for Key within a sync
// scope, versions included — the pull half of anti-entropy repair.
type syncPullReq struct {
	Prefix string
	Lo     uint64
	Hi     uint64
	Key    uint64
}

type syncPullResp struct {
	Entries []storeRecord
}

// repairResp reports one operator-triggered anti-entropy round (the request
// carries no body).
type repairResp struct {
	Partners int
	Pushed   int
	Pulled   int
}

// bucketRefReq asks the receiver for the contacts it knows XOR-nearest to
// Target within the domain named Prefix — Kandy's bucket-refresh probe, the
// live analog of Kademlia FIND_NODE. The receiver must belong to the domain.
type bucketRefReq struct {
	Prefix string
	Target uint64
}

// bucketRefResp carries up to bucketRefFanout in-domain contacts, XOR-nearest
// first.
type bucketRefResp struct {
	Contacts []Info
}

// lookaheadReq asks the receiver for its lookahead state — per-level first
// successors and ring-size estimates — for levels 0..Levels of its chain
// (Cacophony's neighbor exchange; the sender passes the depth of the lowest
// common domain, the levels whose rings the two sides share).
type lookaheadReq struct {
	Levels int
}

// lookaheadResp answers with Succs[l] (the receiver's first successor at
// level l, itself when alone) and Ests[l] (its arc-based ring-size estimate,
// 0 when it has no successor list to estimate from) for levels
// 0..min(Levels, receiver's depth).
type lookaheadResp struct {
	Succs []Info
	Ests  []uint64
}

// fetchReq retrieves values for Key visible to a querier named Origin.
type fetchReq struct {
	Key    uint64
	Origin string
}

type fetchValue struct {
	Value   []byte
	Access  string
	Pointer Info
}

type fetchResp struct {
	Values []fetchValue
}

// getReq is the routed retrieval of Key. A client (or Node.Get) sends only
// the key; the node a get enters at (Hops == 0) fills Origin with its own
// name and Level with its chain depth, and the message then walks Origin's
// domains from the most local outward: within Origin's level-Level domain it
// is forwarded greedily to the key's owner there, which answers from its
// store or lowers Level and routes on from where it stands.
type getReq struct {
	Key uint64
	// Origin is the entry node's domain name: access control is evaluated
	// for it, and its domain chain is the route.
	Origin string
	// Level is the depth of the Origin domain being searched.
	Level int
	routeHeader
}

// getResp answers a get. Level is the depth of the domain whose owner held
// the answer (-1 when Status is not statusOK) and Hops the forwards the get
// took in total, so the entry node can say where the answer came from.
type getResp struct {
	Status int
	Value  []byte
	Level  int
	routeHeader
}

// putReq is the routed store of one record. The entry node (Hops == 0)
// validates the Section 4.1 domain rules; the record then rides the greedy
// route inside its home domain — Storage, or Access for a pointer record —
// and is applied and made durable at the owner before the reply. Pointer is
// only ever set by the entry node, on the second put of an access ⊋ storage
// write.
type putReq struct {
	Key     uint64
	Value   []byte
	Storage string
	Access  string
	Pointer Info
	routeHeader
}

// putResp acknowledges a put: with statusOK it is a durability promise from
// Owner, the node that applied the record (which the entry needs to build
// the pointer record). Hops is the forwards taken, both records included;
// a traced put's spans are the value record's route.
type putResp struct {
	Status int
	Owner  Info
	routeHeader
}

// registerReq records From as a live member of the domain named Prefix in
// the receiver's membership registry.
type registerReq struct {
	Prefix string
	From   Info
}

// membersReq asks for registered members of the domain named Prefix.
type membersReq struct {
	Prefix string
}

type membersResp struct {
	Members []Info
}

// leavingReq announces a graceful departure at every shared level.
type leavingReq struct {
	From  Info
	Succs []Info // the leaver's global successor list, as repair hints
}

// components splits a hierarchical name; the root is the empty slice.
func components(name string) []string {
	if name == "" {
		return nil
	}
	return strings.Split(name, "/")
}

// prefixAt returns the first `level` components of name joined back into a
// domain path; level 0 is the root ("").
func prefixAt(name string, level int) string {
	if level <= 0 {
		return ""
	}
	comps := components(name)
	if level >= len(comps) {
		return name
	}
	return strings.Join(comps[:level], "/")
}

// prefixLevel returns the chain depth a domain prefix names: 0 for the root
// (""), otherwise one more than its separator count. It is the allocation-free
// counterpart of len(components(prefix)) used on the lookup hot path.
func prefixLevel(prefix string) int {
	if prefix == "" {
		return 0
	}
	return strings.Count(prefix, "/") + 1
}

// inDomain reports whether a node named `name` belongs to the domain named
// `prefix` (the root contains everyone).
func inDomain(name, prefix string) bool {
	if prefix == "" {
		return true
	}
	return name == prefix || strings.HasPrefix(name, prefix+"/")
}

// sharedLevels returns the number of leading name components two nodes
// share: the depth of their lowest common domain.
func sharedLevels(a, b string) int {
	ca, cb := components(a), components(b)
	n := 0
	for n < len(ca) && n < len(cb) && ca[n] == cb[n] {
		n++
	}
	return n
}

// domainKey hashes a domain name into the identifier space; the membership
// registry for the domain lives at this key's owner.
func domainKey(space id.Space, prefix string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte("canon-domain:" + prefix))
	return h.Sum64() & space.Mask()
}
