// Package transport provides the message transport used by live Canon nodes
// (internal/netnode): a request/response abstraction with two
// implementations — an in-memory bus for tests and simulations, and a TCP
// transport for real deployments.
//
// # Wire protocol
//
// The TCP transport speaks one protocol, specified in docs/WIRE.md: two
// persistent connections per peer, each carrying many concurrent in-flight
// requests, every frame tagged with a uint64 request ID. Envelopes use a
// compact binary encoding with varint lengths, and every body travels in the
// binary form its BinaryAppender produces and its encoding.BinaryUnmarshaler
// reads back; a body with no such codec is an encode error. Encode buffers
// are sync.Pool-recycled.
//
// A connection opens with a 4-byte hello carrying the one wire version this
// build speaks. The acceptor answers with its own; a mismatch on either side
// closes the connection (the dialer reports both numbers), and an accepted
// connection that does not open with the hello is closed and counted.
//
// # Composition
//
// Faulty (deterministic fault injection + nonce dedup) and Instrumented
// (wire-level telemetry) wrap any Transport, in any order: they operate on
// Message values, which carry their typed Body until a connection frames
// them, so the in-memory bus and TCP deliver identical semantics.
package transport
