// Package netnode implements a live, networked Canon node: the dynamic side
// of the paper (Section 2.3), generic over a pluggable routing geometry
// (Sections 5-6). Nodes carry hierarchical names ("stanford/cs/db") and
// maintain successor lists (leaf sets) and a predecessor at every level of
// their domain chain — the geometry-independent ring substrate that defines
// ownership. On top of it, Config.Geometry selects how long links are built
// and how a forwarding hop picks among them:
//
//   - Crescendo (the default): Canonical Chord — powers-of-two fingers
//     under the merge bound, maximal clockwise advance.
//   - Kandy: Canonical Kademlia — one contact per XOR bucket refreshed by
//     iterative bucket probes, level-major XOR-nearest next hop.
//   - Cacophony: Canonical Symphony — harmonic long links against an
//     estimated ring size, 1-lookahead next hop fed by a periodic
//     neighbor exchange.
//
// Every geometry forwards within the clockwise advance-without-overshoot
// window under the Section 2.2 link-retention rule, so lookups terminate,
// resolve to the same owner, interoperate across mixed-geometry clusters,
// and keep intra-domain path locality on the wire exactly as in the
// analytical model. The written geometry contract is docs/GEOMETRY.md.
//
// Bootstrap uses the paper's third suggestion: membership hints are stored
// in the DHT itself, under a key derived from each domain's name.
//
// # Key-value operations
//
// A get or a put is one routed message (Section 4.1, docs/WIRE.md §10): the
// node it enters at — the caller's own node, or the node a Client addressed —
// sends it down the hierarchical greedy route and the owner it lands on
// answers. A get walks the entry node's domains from the most local outward
// and the first owner holding accessible content replies; a put's record
// rides the route inside its storage domain and is applied and made durable
// at the owner before the ack. Node.Get/Put and Client.Get/Put are that one
// path.
//
// Lookups, gets and puts are one routing primitive: one forwarder
// (routedOp.forward) sends every routed message on, with one route header
// (hops, trace ID, spans) at the end of every routed body and one answer
// rule — a candidate has answered when its reply decodes into the op's
// response; an unreachable candidate or an error reply sends the route on
// to the next. Each op keeps only its terminal action: a lookup answers as
// owner, a get reads the local store and on a miss steps out one level, a
// put applies the record and syncs the store before replying (a store
// failure is the answer status not-durable). The node the route entered at
// observes the op's hop histogram and archives a traced route.
//
// # Wire format
//
// RPC bodies are declared in wire.go and every one of them implements
// transport.BinaryAppender and encoding.BinaryUnmarshaler in binwire.go to
// binwire4.go: that pair is the only body codec, in the compact encoding
// specified in docs/WIRE.md §4 and §8–§10. Both methods of a body run the
// same field walk over a bidirectional coder, so the layout is written once;
// the walk also states the layout, and tests hold docs/wire.schema.json, the
// WIRE.md field tables and the golden bytes in testdata to what it states
// (docs/WIRE.md §6.1). Decoding is strict, and the round-trip fuzzers in
// binwire_test.go hold decode(encode(x)) to x for every body.
//
// # Resilience
//
// Outbound RPCs go through a retry policy with exponential backoff; each
// logical request carries a dedup nonce, and the serving side wraps its
// handler in nonce-based at-most-once caching (transport.DedupHandler
// semantics), so retries and duplicated deliveries never double-execute a
// store. Nodes that repeatedly fail, and candidates that answer with an
// error, are routed around using the per-level successor lists, and the
// routing layer records route-arounds in the node's stats and any active
// route trace.
package netnode
