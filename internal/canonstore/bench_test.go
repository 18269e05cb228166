package canonstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// Store-layer benchmarks: the durable write path (append, fsync barrier),
// recovery, the inline compaction stall and the anti-entropy summaries.
// scripts/bench-compare.sh records their ns/op and gates their allocs/op.

func openBench(b *testing.B, opts Options) *Disk {
	b.Helper()
	d, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDiskPut is one memtable apply plus one buffered WAL append, with
// no fsync: a key the store has never held, and a newer version of a held
// key. The overwrite case carries its share of rotations and compactions.
func BenchmarkDiskPut(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 100)
	b.Run("new_key", func(b *testing.B) {
		// A fresh store every storeKeys puts keeps the memtable small; the
		// swap runs with the timer stopped.
		const storeKeys = 1 << 15
		d := openBench(b, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%storeKeys == 0 {
				b.StopTimer()
				d.Close()
				d = openBench(b, Options{})
				b.StartTimer()
			}
			if _, err := d.Put(Entry{Key: uint64(i), Value: val, Storage: "s", Version: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d.Close()
	})
	b.Run("overwrite", func(b *testing.B) {
		const keys = 1000
		d := openBench(b, Options{})
		defer d.Close()
		for k := uint64(0); k < keys; k++ {
			if _, err := d.Put(Entry{Key: k, Value: val, Storage: "s", Version: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Put(Entry{Key: uint64(i % keys), Value: val, Storage: "s", Version: uint64(i) + 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiskSync is the acked write: Put then Sync, from 1, 4 or 16
// concurrent writers. fsyncs/op shows how many writers one barrier covers.
func BenchmarkDiskSync(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 100)
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			d := openBench(b, Options{})
			defer d.Close()
			fsyncs := d.m.fsyncs.Value()
			var next atomic.Uint64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						v := next.Add(1)
						if v > uint64(b.N) {
							return
						}
						if _, err := d.Put(Entry{Key: v % 1000, Value: val, Storage: "s", Version: v}); err != nil {
							b.Error(err)
							return
						}
						if err := d.Sync(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(d.m.fsyncs.Value()-fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}

// BenchmarkDiskReplay is recovery: Open and Close over a 10 000-record
// log of 1 000 live keys (~1.3 MB). The empty segment each Open creates is
// removed with the timer stopped, so every iteration replays the same log.
func BenchmarkDiskReplay(b *testing.B) {
	dir := b.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 10000; i++ {
		if _, err := d.Put(Entry{Key: uint64(i % 1000), Value: val, Storage: "s", Version: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := os.Remove(d.segPath(d.seq)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkDiskCompact is the stall compaction adds to the write that
// triggers it: the rotation that seals the compactMinSegments-th segment,
// merging a live set of the given size. ns/MB is per MiB of live set.
func BenchmarkDiskCompact(b *testing.B) {
	for _, live := range []struct {
		name  string
		bytes int
	}{{"2.5MB", 5 << 19}, {"20MB", 20 << 20}} {
		b.Run("live="+live.name, func(b *testing.B) {
			d := openBench(b, Options{})
			defer d.Close()
			val := bytes.Repeat([]byte("v"), 1000)
			for k := 0; k < live.bytes/len(val); k++ {
				if _, err := d.Put(Entry{Key: uint64(k), Value: val, Storage: "s", Version: 1}); err != nil {
					b.Fatal(err)
				}
			}
			rotate := func() {
				d.mu.Lock()
				defer d.mu.Unlock()
				if err := d.rotateLocked(); err != nil {
					b.Fatal(err)
				}
			}
			for len(d.sealed) != 1 { // start every iteration from one merged segment
				rotate()
			}
			compactions := d.m.compactions.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for len(d.sealed) < compactMinSegments-1 {
					rotate()
				}
				b.StartTimer()
				rotate()
			}
			b.StopTimer()
			if got := d.m.compactions.Value() - compactions; got != int64(b.N) {
				b.Fatalf("%d compactions in %d iterations", got, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(live.bytes)/(1<<20)), "ns/MB")
		})
	}
}

// BenchmarkMerkleBuild summarises 10 000 entries: one digest per entry plus
// the root fold — the per-scope cost of an anti-entropy comparison.
func BenchmarkMerkleBuild(b *testing.B) {
	entries := randomEntries(rand.New(rand.NewSource(1)), 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merkleSink = buildTree(entries)
	}
}

var merkleSink *MerkleTree

// BenchmarkMerkleDiff diffs two 10 000-entry summaries that disagree in
// 16 entries.
func BenchmarkMerkleDiff(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 10000)
	a := buildTree(entries)
	changed := append([]Entry(nil), entries...)
	for i := 0; i < 16; i++ {
		changed[rng.Intn(len(changed))].Version += 100
	}
	peer := buildTree(changed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.DiffBuckets(peer.Leaves)) == 0 {
			b.Fatal("no divergent buckets")
		}
	}
}
