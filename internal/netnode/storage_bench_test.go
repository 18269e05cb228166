package netnode

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// newStoreBenchNode builds a single settled node on the in-memory bus with
// the default volatile store, preloaded with one value per benchmark key.
// The store benchmarks measure the node-local write and read paths a store
// or fetch RPC lands on (versioned LWW apply, metric upkeep, access
// filtering) without wire or routing cost on top.
func newStoreBenchNode(b *testing.B, keys []uint64) *Node {
	b.Helper()
	bus := transport.NewBus()
	n, err := New(Config{
		Name:      "bench/dom",
		RandomID:  true,
		Rand:      rand.New(rand.NewSource(9)),
		Transport: bus.Endpoint("store-bench"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	for i, k := range keys {
		req := storeReq2{
			Key: k, Value: []byte(fmt.Sprintf("value-%d", i)),
			Storage: "bench", Access: "bench",
		}
		if err := n.storeLocalV2(req); err != nil {
			b.Fatal(err)
		}
	}
	return n
}

func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Uint32())
	}
	return keys
}

// BenchmarkStoreLocalMem measures the node-local store apply against the
// in-memory engine: version stamping, the (version, digest) LWW gate, the
// memtable upsert and the stored-keys gauge refresh. Keys are preloaded so
// every iteration is a steady-state overwrite, not map growth. CI's
// bench-gate holds its allocs/op at zero.
func BenchmarkStoreLocalMem(b *testing.B) {
	keys := benchKeys(1024)
	n := newStoreBenchNode(b, keys)
	value := []byte("overwrite-value-of-modest-size--")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := storeReq2{
			Key: keys[i%len(keys)], Value: value,
			Storage: "bench", Access: "bench",
		}
		if err := n.storeLocalV2(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchLocalMem measures the node-local read path a fetch RPC
// lands on: memtable lookup plus the access-domain filter that decides
// which entries the querier may see.
func BenchmarkFetchLocalMem(b *testing.B) {
	keys := benchKeys(1024)
	n := newStoreBenchNode(b, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := n.fetchLocal(fetchReq{Key: keys[i%len(keys)], Origin: "bench/dom"})
		if len(out) != 1 {
			b.Fatalf("fetchLocal returned %d values, want 1", len(out))
		}
	}
}

// BenchmarkReplicateOnceQuiescent measures the replication step of a
// stabilization round on a node whose replicas are converged and whose
// ring neighbors have not changed: the cost every node pays every round
// for holding data. It must not grow with the number of stored entries and
// must send nothing — scripts/bench-compare.sh holds rpcs/op at zero and
// the 10 000-entry time within 2x of the 1 000-entry time.
func BenchmarkReplicateOnceQuiescent(b *testing.B) {
	for _, entries := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			bus := transport.NewBus()
			ctx := context.Background()
			var pair [2]*Node
			for i := range pair {
				n, err := New(Config{
					ID: uint64(i+1) << 30, Rand: rand.New(rand.NewSource(int64(i))),
					Transport: bus.Endpoint(fmt.Sprintf("quiet-%d", i)), ReplicationFactor: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { n.Close() })
				contact := ""
				if i > 0 {
					contact = pair[0].self.Addr
				}
				if err := n.Join(ctx, contact); err != nil {
					b.Fatal(err)
				}
				pair[i] = n
			}
			owner := pair[1]
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < entries; i++ {
				key := owner.self.ID + 1 + uint64(rng.Intn(1<<29)) // inside the owner's arc
				if err := owner.storeLocalV2(storeReq2{Key: key, Value: []byte("value")}); err != nil {
					b.Fatal(err)
				}
			}
			for r := 0; r < 3; r++ {
				pair[0].StabilizeOnce(ctx)
				owner.StabilizeOnce(ctx)
			}
			if pair[0].StoredKeys() != owner.StoredKeys() {
				b.Fatalf("replica holds %d keys, owner %d: not converged", pair[0].StoredKeys(), owner.StoredKeys())
			}
			sent := func() (total int64) {
				for _, c := range owner.m.sentFixed {
					total += c.Value()
				}
				return total
			}
			before := sent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				owner.replicateOnce(ctx)
			}
			b.StopTimer()
			b.ReportMetric(float64(sent()-before)/float64(b.N), "rpcs/op")
		})
	}
}
