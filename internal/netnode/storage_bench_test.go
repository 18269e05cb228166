package netnode

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/canon-dht/canon/internal/canonstore"
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
		req := storeRecord{
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
		req := storeRecord{
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
				if err := owner.storeLocalV2(storeRecord{Key: key, Value: []byte("value")}); err != nil {
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

// syncCountingStore counts the durability barriers a store runs.
type syncCountingStore struct {
	canonstore.Store
	syncs atomic.Int64
}

func (s *syncCountingStore) Sync() error {
	s.syncs.Add(1)
	return s.Store.Sync()
}

// BenchmarkReplicateOnceDirty measures the replication step of a round on an
// owner whose every key is dirty while its ring stands still: each op marks
// the keys dirty again and runs replicateOnce, which sends all of them to
// the ReplicationFactor-1 partners. It reports per round the store2 RPCs
// (store2/op), every RPC the owner sent (rpcs/op, which adds the neighbors
// query that walks to a second partner) and the durability barriers the
// partners ran (fsyncs/op). The keys' records fit one batch, so
// scripts/bench-compare.sh holds store2/op and fsyncs/op at the partner
// count at 100 and at 1 000 keys: a round costs per destination, not per key.
func BenchmarkReplicateOnceDirty(b *testing.B) {
	for _, rf := range []int{2, 3} {
		for _, dirty := range []int{100, 1000} {
			b.Run(fmt.Sprintf("rf=%d/keys=%d", rf, dirty), func(b *testing.B) {
				bus := transport.NewBus()
				ctx := context.Background()
				nodes := make([]*Node, rf)
				stores := make([]*syncCountingStore, rf)
				for i := range nodes {
					stores[i] = &syncCountingStore{Store: canonstore.NewMem()}
					n, err := New(Config{
						ID: uint64(i+1) << 30, Rand: rand.New(rand.NewSource(int64(i))),
						Transport: bus.Endpoint(fmt.Sprintf("dirty-%d", i)), ReplicationFactor: rf,
						Store: stores[i],
					})
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { n.Close() })
					contact := ""
					if i > 0 {
						contact = nodes[0].self.Addr
					}
					if err := n.Join(ctx, contact); err != nil {
						b.Fatal(err)
					}
					nodes[i] = n
				}
				owner := nodes[1]
				rng := rand.New(rand.NewSource(5))
				keys := make([]uint64, dirty)
				for i := range keys {
					keys[i] = owner.self.ID + 1 + uint64(rng.Intn(1<<29)) // inside the owner's arc
					if err := owner.storeLocalV2(storeRecord{Key: keys[i], Value: []byte("value")}); err != nil {
						b.Fatal(err)
					}
				}
				for r := 0; r < 3; r++ {
					for _, n := range nodes {
						n.StabilizeOnce(ctx)
					}
				}
				for _, n := range nodes {
					if n.StoredKeys() != owner.StoredKeys() {
						b.Fatalf("a partner holds %d keys, the owner %d: not converged", n.StoredKeys(), owner.StoredKeys())
					}
				}
				partnerSyncs := func() (total int64) {
					for i, st := range stores {
						if nodes[i] != owner {
							total += st.syncs.Load()
						}
					}
					return total
				}
				sent := func() (total int64) {
					for _, c := range owner.m.sentFixed {
						total += c.Value()
					}
					return total
				}
				store2, rpcs, syncs := owner.m.sentFixed[msgStoreV2].Value(), sent(), partnerSyncs()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for _, key := range keys {
						owner.markDirty(key)
					}
					b.StartTimer()
					owner.replicateOnce(ctx)
				}
				b.StopTimer()
				if d := dirtyKeys(owner); d != 0 {
					b.Fatalf("%d keys still dirty after the rounds", d)
				}
				b.ReportMetric(float64(owner.m.sentFixed[msgStoreV2].Value()-store2)/float64(b.N), "store2/op")
				b.ReportMetric(float64(sent()-rpcs)/float64(b.N), "rpcs/op")
				b.ReportMetric(float64(partnerSyncs()-syncs)/float64(b.N), "fsyncs/op")
			})
		}
	}
}
