// Merkle-style summaries for replica anti-entropy.
//
// A MerkleTree condenses one replica set (the entries a node holds for one
// domain ring and key range) into a fixed 256-leaf digest vector plus a
// root. Two replicas exchange roots; on mismatch they exchange the leaf
// vector, diff it locally, and then only the keys in mismatched buckets
// travel — tree exchange → diff → repair, with traffic proportional to
// divergence, not to data size (the DistHash/Dynamo lineage).
//
// The per-entry digest covers identity, content and version, so a replica
// holding a stale version of a key diverges in exactly that key's bucket. Leaves combine entry digests with modular addition,
// which is commutative — iteration order (map order, log order) cannot
// change the summary. The combiner is not cryptographic: a colliding pair
// would only delay repair by one round, because versions advance and
// re-digest differently.
package canonstore

// MerkleLeaves is the fixed leaf count of every tree; both sides of a sync
// must agree on it, so it is part of the wire contract (docs/WIRE.md).
const MerkleLeaves = 256

// MerkleTree is a sealed summary: Leaves has exactly MerkleLeaves entries
// and Root folds them in index order.
type MerkleTree struct {
	Root   uint64
	Leaves []uint64
}

// MerkleBucket maps a key to its leaf index. Keys are ring positions (not
// necessarily uniform per range), so they are remixed first.
func MerkleBucket(key uint64) int {
	return int(mix64(key) >> 56) // top 8 bits: 256 buckets
}

// Digest fingerprints an entry's identity, content and version — every
// field, so equal digests mean equal records. It is also the conflict
// tie-break for equal-version writes (see putEntry).
func (e Entry) Digest() uint64 {
	var buf [512]byte
	return mix64(fnv64a(appendEntry(buf[:0], e)))
}

// fnv64a is FNV-1a over a byte slice, inlined so digesting stays
// allocation-free on the store hot path (hash/fnv's New64a escapes).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// NewMerkleTree returns an empty, unsealed tree.
func NewMerkleTree() *MerkleTree {
	return &MerkleTree{Leaves: make([]uint64, MerkleLeaves)}
}

// Add folds one entry into its leaf. Adding is commutative.
func (t *MerkleTree) Add(e Entry) {
	t.Leaves[MerkleBucket(e.Key)] += e.Digest()
}

// Seal computes the root over the leaf vector; call it after the last Add.
func (t *MerkleTree) Seal() {
	root := uint64(14695981039346656037) // fnv-64a offset basis
	for _, l := range t.Leaves {
		root = mix64(root ^ l)
	}
	t.Root = root
}

// DiffBuckets returns the leaf indexes where the two vectors disagree. A
// short or nil peer vector (a peer holding nothing, or a malformed reply)
// counts every local non-empty bucket as divergent.
func (t *MerkleTree) DiffBuckets(peer []uint64) []int {
	var out []int
	for i, l := range t.Leaves {
		var p uint64
		if i < len(peer) {
			p = peer[i]
		}
		if l != p {
			out = append(out, i)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
