package netnode

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// routedBench is a settled 64-node Crescendo cluster — four top-level
// domains of two leaves of eight nodes, Mem stores, in-memory bus — driven
// through one Client the way canonctl or canonblast drives a real one.
type routedBench struct {
	nodes  []*Node
	client *Client
	keys   []uint64
	// hops[i] is walkHops(keys[i], "") from entry(i): what one global walk
	// to the owner costs for the i-th (entry, key) pair the benchmark loop
	// cycles through.
	hops []int
}

const routedBenchKeys = 1024

func newRoutedBench(b *testing.B) *routedBench {
	b.Helper()
	bus := transport.NewBus()
	rng := rand.New(rand.NewSource(64))
	ctx := context.Background()
	c := &routedBench{client: NewClient(bus.Endpoint("routed-bench-client"))}
	for i := 0; i < 64; i++ {
		n, err := New(Config{
			Name: fmt.Sprintf("d%d/s%d", i%4, (i/4)%2), RandomID: true, Rand: rng,
			Transport: bus.Endpoint(fmt.Sprintf("routed-bench-%d", i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		contact := ""
		if i > 0 {
			contact = c.nodes[0].self.Addr
		}
		if err := n.Join(ctx, contact); err != nil {
			b.Fatalf("join node %d: %v", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	for r := 0; r < 12; r++ {
		for _, n := range c.nodes {
			n.StabilizeOnce(ctx)
		}
		for _, n := range c.nodes {
			n.FixFingers(ctx)
		}
	}
	c.keys = make([]uint64, routedBenchKeys)
	c.hops = make([]int, routedBenchKeys)
	for i := range c.keys {
		c.keys[i] = uint64(rng.Uint32())
		c.hops[i] = walkHops(b, c.entry(i), c.keys[i], "")
	}
	return c
}

// entry is the node op i enters at; with 64 nodes and 1024 keys every key
// keeps its entry node from one cycle to the next.
func (c *routedBench) entry(i int) *Node { return c.nodes[i%len(c.nodes)] }

// sent sums every request the cluster's nodes have sent, whatever its type.
func (c *routedBench) sent() (total int64) {
	for _, n := range c.nodes {
		for _, counter := range n.m.sentFixed {
			total += counter.Value()
		}
	}
	return total
}

// report publishes the message cost of the timed loop: rpcs/op counts the
// client's one request per op plus every request any node sent for it, and
// hops/op is the mean global walk to the owner of the same b.N (entry, key)
// pairs. scripts/bench-compare.sh holds rpcs/op at or under hops/op + 1.
func (c *routedBench) report(b *testing.B, sentBefore int64) {
	lookupHops := 0
	for i := 0; i < b.N; i++ {
		lookupHops += c.hops[i%routedBenchKeys]
	}
	b.ReportMetric(float64(c.sent()-sentBefore)/float64(b.N)+1, "rpcs/op")
	b.ReportMetric(float64(lookupHops)/float64(b.N), "hops/op")
}

// BenchmarkRoutedLookup resolves global keys through rotating entry nodes:
// the bottom-up route up to the node that answers — the owner, or the node
// in front of it, from its successor list.
func BenchmarkRoutedLookup(b *testing.B) {
	c := newRoutedBench(b)
	ctx := context.Background()
	before := c.sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % routedBenchKeys
		if _, _, err := c.client.Lookup(ctx, c.entry(k).self.Addr, c.keys[k], ""); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.report(b, before)
}

// BenchmarkRoutedGet reads preloaded global keys through rotating entry
// nodes: the whole bottom-up route, leaf ring to global owner, per op.
func BenchmarkRoutedGet(b *testing.B) {
	c := newRoutedBench(b)
	ctx := context.Background()
	value := make([]byte, 128)
	for i, key := range c.keys {
		if err := c.client.Put(ctx, c.entry(i).self.Addr, key, value, "", ""); err != nil {
			b.Fatal(err)
		}
	}
	before := c.sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % routedBenchKeys
		if _, err := c.client.Get(ctx, c.entry(k).self.Addr, c.keys[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.report(b, before)
}

// BenchmarkRoutedPut writes 128-byte global values through rotating entry
// nodes: the record rides the route and is applied at the owner.
func BenchmarkRoutedPut(b *testing.B) {
	c := newRoutedBench(b)
	ctx := context.Background()
	value := make([]byte, 128)
	before := c.sent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % routedBenchKeys
		if err := c.client.Put(ctx, c.entry(k).self.Addr, c.keys[k], value, "", ""); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.report(b, before)
}
