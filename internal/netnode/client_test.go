package netnode_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/transport"
)

func TestClientOperations(t *testing.T) {
	c := newCluster(t, 21, hierNames())
	defer c.close(t)
	ctx := context.Background()

	client := netnode.NewClient(c.bus.Endpoint("client"))
	var csAddr, mitAddr string
	for _, n := range c.nodes {
		switch n.Info().Name {
		case "stanford/cs":
			csAddr = n.Info().Addr
		case "mit/csail":
			mitAddr = n.Info().Addr
		}
	}

	info, err := client.Ping(ctx, csAddr)
	if err != nil || info.Name != "stanford/cs" {
		t.Fatalf("ping: %+v, %v", info, err)
	}

	// Put through a CS node with Stanford-wide access.
	if err := client.Put(ctx, csAddr, 4242, []byte("via-client"), "stanford/cs", "stanford"); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(ctx, csAddr, 4242)
	if err != nil || string(got) != "via-client" {
		t.Fatalf("get via cs: %q, %v", got, err)
	}
	// Not visible through an MIT node.
	if _, err := client.Get(ctx, mitAddr, 4242); !errors.Is(err, netnode.ErrNotFound) {
		t.Errorf("get via mit: %v", err)
	}
	// Validation: storage domain must contain the contacted node.
	if err := client.Put(ctx, mitAddr, 1, nil, "stanford/cs", "stanford"); !errors.Is(err, netnode.ErrBadDomain) {
		t.Errorf("cross-domain client put: %v", err)
	}

	// Lookup agrees with a member node's own lookup.
	owner, hops, err := client.Lookup(ctx, csAddr, 777, "")
	if err != nil || hops < 0 {
		t.Fatalf("client lookup: %v", err)
	}
	var cs *netnode.Node
	for _, n := range c.nodes {
		if n.Info().Addr == csAddr {
			cs = n
			break
		}
	}
	direct, err := cs.Lookup(ctx, 777, "")
	if err != nil || direct.Addr != owner.Addr {
		t.Errorf("client owner %d != node owner %d (%v)", owner.ID, direct.ID, err)
	}

	// Neighbors dump.
	pred, succs, err := client.Neighbors(ctx, csAddr, 0)
	if err != nil || len(succs) == 0 || pred.IsZero() {
		t.Errorf("neighbors: pred=%+v succs=%d err=%v", pred, len(succs), err)
	}
}

// TestGetPlantsNoStaleCopies is the regression test for the read repair
// Node.Get used to run: it copied the global owner's record to the local
// owners that had answered empty, nothing ever refreshed those copies, and
// the most-local owner answers first — so after an overwrite every reader
// outside the owner's own chain kept reading the old value, forever, on a
// stable ring with no faults. A get plants nothing now.
func TestGetPlantsNoStaleCopies(t *testing.T) {
	c := newCluster(t, 31, hierNames())
	defer c.close(t)
	ctx := context.Background()
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = uint64(c.rng.Uint32())
	}
	for _, version := range []string{"v1", "v2"} {
		for i, key := range keys {
			if err := c.nodes[i%len(c.nodes)].Put(ctx, key, []byte(version), "", ""); err != nil {
				t.Fatal(err)
			}
		}
		stale := 0
		for _, key := range keys {
			for _, n := range c.nodes {
				got, err := n.Get(ctx, key)
				if err != nil {
					t.Fatalf("get %d at %q: %v", key, n.Info().Name, err)
				}
				if string(got) != version {
					stale++
				}
			}
		}
		if stale != 0 {
			t.Fatalf("after writing %s everywhere, %d of %d reads returned something else", version, stale, len(keys)*len(c.nodes))
		}
	}
}

// TestClientErrorsAcrossTheWire is test (e): a routed operation's "not
// found" and "bad domain" are statuses in the reply body, so errors.Is keeps
// working for a client in another process, over real TCP.
func TestClientErrorsAcrossTheWire(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(5))
	var nodes []*netnode.Node
	for i, name := range []string{"west/a", "west/b", "east/a"} {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n, err := netnode.New(netnode.Config{Name: name, RandomID: true, Rand: rng, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		contact := ""
		if i > 0 {
			contact = nodes[0].Info().Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	for r := 0; r < 4; r++ {
		for _, n := range nodes {
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
		}
	}
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	client := netnode.NewClient(tr)
	west, east := nodes[1].Info().Addr, nodes[2].Info().Addr

	if err := client.Put(ctx, west, 99, []byte("scoped"), "west", "west"); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Get(ctx, nodes[0].Info().Addr, 99); err != nil || string(got) != "scoped" {
		t.Fatalf("get inside the access domain: %q, %v", got, err)
	}
	if _, err := client.Get(ctx, east, 99); !errors.Is(err, netnode.ErrNotFound) {
		t.Errorf("get outside the access domain: %v, want ErrNotFound", err)
	}
	if _, err := client.Get(ctx, west, 100); !errors.Is(err, netnode.ErrNotFound) {
		t.Errorf("get of an absent key: %v, want ErrNotFound", err)
	}
	if err := client.Put(ctx, east, 1, []byte("v"), "west", "west"); !errors.Is(err, netnode.ErrBadDomain) {
		t.Errorf("put with a storage domain that excludes the entry node: %v, want ErrBadDomain", err)
	}
	if err := client.Put(ctx, west, 1, []byte("v"), "west", "west/a"); !errors.Is(err, netnode.ErrBadDomain) {
		t.Errorf("put with an access domain inside the storage domain: %v, want ErrBadDomain", err)
	}
}

// TestClientNoncesSurviveAddressReuse: two short-lived clients on one
// address — canonctl runs that drew the same ephemeral port — must not share
// nonces, or the node's dedup cache answers the second client's first
// request with the reply to the first client's.
func TestClientNoncesSurviveAddressReuse(t *testing.T) {
	c := newCluster(t, 41, []string{"a", "a", "b"})
	defer c.close(t)
	ctx := context.Background()
	addr := c.nodes[0].Info().Addr
	first := netnode.NewClient(c.bus.Endpoint("recycled-port"))
	if err := first.Put(ctx, addr, 7, []byte("v"), "", ""); err != nil {
		t.Fatal(err)
	}
	second := netnode.NewClient(c.bus.Endpoint("recycled-port"))
	if got, err := second.Get(ctx, addr, 7); err != nil || string(got) != "v" {
		t.Fatalf("first request of a client on a reused address: %q, %v", got, err)
	}
}

// nonceRecorder is a client transport that records the nonce of every
// request it sends.
type nonceRecorder struct {
	transport.Transport
	nonces []string
}

func (r *nonceRecorder) Call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	r.nonces = append(r.nonces, msg.Nonce)
	return r.Transport.Call(ctx, addr, msg)
}

// TestClientStampsNonces: every request a client sends carries a nonce of
// its own, so the node's dedup cache runs each at most once however often
// the network delivers it. Client.call stamps it; scripts/lint.sh keeps
// every client request going through Client.call.
func TestClientStampsNonces(t *testing.T) {
	c := newCluster(t, 41, []string{"a", "a", "b"})
	defer c.close(t)
	ctx := context.Background()
	addr := c.nodes[0].Info().Addr
	rec := &nonceRecorder{Transport: c.bus.Endpoint("recorder")}
	client := netnode.NewClient(rec)
	if _, err := client.Ping(ctx, addr); err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, addr, 7, []byte("v"), "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(ctx, addr, 7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Lookup(ctx, addr, 7, ""); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, n := range rec.nonces {
		if n == "" || seen[n] {
			t.Fatalf("request %d of %d carries nonce %q: want a fresh one (all: %q)", i, len(rec.nonces), n, rec.nonces)
		}
		seen[n] = true
	}
}
