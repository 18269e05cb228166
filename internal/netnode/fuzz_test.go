package netnode

import (
	"context"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// FuzzHandle throws arbitrary message types and payloads at a live node's
// RPC dispatcher: malformed input must produce errors, never panics or
// corrupted state.
func FuzzHandle(f *testing.F) {
	bus := transport.NewBus()
	node, err := New(Config{
		Name: "fuzz/target", ID: 12345, Transport: bus.Endpoint("target"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = node.Close() })
	if err := node.Join(context.Background(), ""); err != nil {
		f.Fatal(err)
	}
	caller := bus.Endpoint("caller")

	seed := func(msgType string, body wireBody) {
		enc, err := body.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msgType, enc)
	}
	ghost := Info{ID: 7, Addr: "x"}
	seed(msgLookup, lookupReq{Key: 1})
	seed(msgLookup, lookupReq{Key: ^uint64(0), routeHeader: routeHeader{Hops: -1}})
	seed(msgNeighbors, neighborsReq{Level: 999})
	seed(msgNeighbors, neighborsReq{Level: -3})
	seed(msgNotify, notifyReq{From: ghost})
	seed(msgNotify, notifyReq{Level: 1, From: ghost, AsSuccessor: true})
	seed(msgStoreV2, storeBatch{Entries: []storeRecord{{Key: 5, Storage: "nope/nope"}}})
	seed(msgGet, getReq{Key: 5})
	seed(msgGet, getReq{Key: 5, Origin: "who/else", Level: 99, routeHeader: routeHeader{Hops: 3}})
	seed(msgGet, getReq{Key: 5, Origin: "fuzz", Level: -7, routeHeader: routeHeader{Hops: 511}})
	seed(msgPut, putReq{Key: 5, Value: []byte("v"), Storage: "fuzz"})
	seed(msgPut, putReq{Key: 5, Storage: "nope/nope", Access: "nope"})
	seed(msgPut, putReq{Key: 5, Storage: "elsewhere", Pointer: Info{ID: 1, Addr: "x"}, routeHeader: routeHeader{Hops: 2}})
	seed(msgFetch, fetchReq{Key: 5, Origin: "who"})
	seed(msgRegister, registerReq{Prefix: "a/b"})
	seed(msgMembers, membersReq{})
	seed(msgLeaving, leavingReq{From: Info{Addr: "ghost"}, Succs: []Info{ghost}})
	// Hints that bracket the probe key: the list now names peers this node
	// never reached, which must not answer for the owner (listAnswer).
	seed(msgLeaving, leavingReq{From: Info{Addr: "ghost"}, Succs: []Info{ghost, {ID: 100, Addr: "y"}}})
	seed(msgSyncTree, syncTreeReq{Prefix: "fuzz"})
	seed(msgSyncKeys, syncKeysReq{Buckets: []int{0, 1 << 30}})
	seed(msgSyncPull, syncPullReq{Key: 5})
	seed(msgBucketRef, bucketRefReq{Prefix: "fuzz", Target: 9})
	seed(msgLookahead, lookaheadReq{Levels: 99})
	f.Add(msgRepair, []byte{})
	f.Add("no-such-type", []byte{})
	f.Add(msgPing, []byte("garbage"))

	f.Fuzz(func(t *testing.T, msgType string, payload []byte) {
		msg := transport.Message{Type: msgType, Payload: payload}
		resp, err := caller.Call(context.Background(), "target", msg)
		_ = resp
		_ = err
		// After any input the node must still answer a well-formed lookup.
		good, merr := transport.NewMessage(msgLookup, lookupReq{Key: 42})
		if merr != nil {
			t.Fatal(merr)
		}
		raw, err := caller.Call(context.Background(), "target", good)
		if err != nil {
			t.Fatalf("node broken after fuzz input: %v", err)
		}
		var out lookupResp
		if err := raw.Decode(&out); err != nil {
			t.Fatalf("node returned bad lookup after fuzz input: %v", err)
		}
		if out.Pred.ID != 12345 {
			t.Fatalf("singleton node no longer owns everything: %d", out.Pred.ID)
		}
	})
}
