package netnode_test

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/transport"
)

// FuzzHandle throws arbitrary message types and payloads at a live node's
// RPC dispatcher: malformed input must produce errors, never panics or
// corrupted state.
func FuzzHandle(f *testing.F) {
	bus := transport.NewBus()
	node, err := netnode.New(netnode.Config{
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

	f.Add("lookup", []byte(`{"key":1,"prefix":""}`))
	f.Add("lookup", []byte(`{"key":-1}`))
	f.Add("neighbors", []byte(`{"level":999}`))
	f.Add("neighbors", []byte(`{"level":-3}`))
	f.Add("notify", []byte(`{"level":0,"from":{"id":7,"addr":"x"}}`))
	f.Add("store2", []byte(`{"key":5,"storage":"nope/nope"}`))
	f.Add("get", []byte(`{"key":5}`))
	f.Add("get", []byte(`{"key":5,"origin":"who/else","level":99,"hops":3}`))
	f.Add("get", []byte(`{"key":5,"origin":"fuzz","level":-7,"hops":511}`))
	f.Add("put", []byte(`{"key":5,"value":"dg==","storage":"fuzz","access":""}`))
	f.Add("put", []byte(`{"key":5,"storage":"nope/nope","access":"nope"}`))
	f.Add("put", []byte(`{"key":5,"storage":"elsewhere","hops":2,"pointer":{"id":1,"addr":"x"}}`))
	f.Add("fetch", []byte(`{"key":5,"origin":"who"}`))
	f.Add("register", []byte(`{"prefix":"a/b","from":{}}`))
	f.Add("members", []byte(`{"prefix":""}`))
	f.Add("leaving", []byte(`{"from":{"addr":"ghost"}}`))
	f.Add("no-such-type", []byte(`{}`))
	f.Add("ping", []byte(`garbage`))

	f.Fuzz(func(t *testing.T, msgType string, payload []byte) {
		//canonvet:ignore wirecompat -- fuzzing the dispatcher with raw, deliberately un-nonced envelopes
		msg := transport.Message{Type: msgType, Payload: json.RawMessage(payload)}
		resp, err := caller.Call(context.Background(), "target", msg)
		_ = resp
		_ = err
		// After any input the node must still answer a well-formed lookup.
		good, merr := transport.NewMessage("lookup", map[string]any{"key": 42, "prefix": ""})
		if merr != nil {
			t.Fatal(merr)
		}
		raw, err := caller.Call(context.Background(), "target", good)
		if err != nil {
			t.Fatalf("node broken after fuzz input: %v", err)
		}
		var out struct {
			Pred struct {
				ID uint64 `json:"id"`
			} `json:"pred"`
		}
		if err := raw.Decode(&out); err != nil {
			t.Fatalf("node returned bad lookup after fuzz input: %v", err)
		}
		if out.Pred.ID != 12345 {
			t.Fatalf("singleton node no longer owns everything: %d", out.Pred.ID)
		}
	})
}
