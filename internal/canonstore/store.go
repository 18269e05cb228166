// Package canonstore is the node-local storage engine behind netnode's
// stored items: the paper's Section 4 storage/access domains need every
// node to hold key-value records (values, pointer records and replicas),
// and this package provides that holding layer behind one Store interface
// with two implementations.
//
//   - Mem: a map-backed volatile store. The default for tests and
//     simulations, and the reference semantics.
//   - Disk: a log-structured durable store — an append-only WAL of
//     CRC-framed records, a full in-memory memtable index (disk is for
//     durability, not capacity), segment rotation, compaction inline at
//     rotation and crash recovery by log replay, all on the caller's
//     goroutine. See docs/STORAGE.md for the exact record layout and the
//     segment lifecycle.
//
// Entries are versioned: Put applies last-write-wins per record identity
// (key, storage domain, access domain, pointerness), refusing writes whose
// Version is below the stored one. Versions are Lamport-style stamps the
// node layer assigns; the store only compares them. An entry carries no
// placement annotation: which nodes hold a record follows from its home
// domain alone (netnode/storage.go), so every copy of a record is the same
// bytes.
//
// Values handed to and returned from a Store are shared, not copied:
// callers must treat Entry.Value as immutable after Put and after Get.
package canonstore

import (
	"errors"
	"sync"
)

var (
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("canonstore: store closed")
	// ErrCorrupt is returned by Open when a sealed WAL segment fails its
	// CRC or framing checks: unlike a torn tail in the newest segment
	// (expected after a crash, silently discarded), damage to sealed
	// history means acked data may be gone and must not be papered over.
	ErrCorrupt = errors.New("canonstore: corrupt WAL segment")
)

// Entry is one stored record: a value, or a pointer record naming the node
// that actually holds the value (Section 4.1 places pointers at the access
// domain's owner when the access domain is wider than the storage domain).
type Entry struct {
	Key     uint64
	Value   []byte
	Storage string // storage domain prefix ("" = global)
	Access  string // access domain prefix ("" = global)

	// PtrID/PtrName/PtrAddr identify the node holding the value when this
	// entry is a pointer record; PtrAddr == "" means a value entry.
	PtrID   uint64
	PtrName string
	PtrAddr string

	// Version orders writes to the same record identity: higher wins, and
	// equal versions are broken by content digest (see putEntry). The node
	// layer stamps it.
	Version uint64
}

// IsPointer reports whether the entry is a pointer record.
func (e Entry) IsPointer() bool { return e.PtrAddr != "" }

// sameIdentity reports whether two entries name the same stored record:
// one key can simultaneously hold a value and a pointer, or copies under
// different domain pairs, and they must not overwrite each other.
func (e Entry) sameIdentity(o Entry) bool {
	return e.Key == o.Key && e.Storage == o.Storage && e.Access == o.Access &&
		e.IsPointer() == o.IsPointer()
}

// Store is the node-local storage engine interface netnode writes through.
//
// Sync is the durability barrier: an implementation may buffer Put and
// Delete arbitrarily, but after Sync returns nil every prior write must
// survive a crash. Nodes call Sync before acknowledging a store RPC
// (netnode's TestAckedWritesAreSynced fails when one of them does not).
type Store interface {
	// Put upserts e by record identity. It reports whether the write
	// changed the store: false means the stored record is at least as new —
	// a newer version won, or e is an exact re-put of what is stored.
	Put(e Entry) (applied bool, err error)
	// Get appends every entry stored under key to dst and returns it.
	Get(key uint64, dst []Entry) []Entry
	// Delete removes the record with the given identity, reporting whether
	// it existed.
	Delete(key uint64, storage, access string, pointer bool) (existed bool, err error)
	// Keys returns how many distinct keys the store currently holds.
	Keys() int
	// ForEach visits every entry until fn returns false. The store's lock
	// is held for the duration: fn must not call back into the store.
	ForEach(fn func(Entry) bool)
	// Sync makes every prior write durable.
	Sync() error
	// Close releases the store's resources. A Mem store forgets
	// everything; a Disk store seals its log for a later Open.
	Close() error
}

// putEntry applies e to a memtable with last-write-wins versioning and
// reports whether it was applied. Writes are totally ordered by
// (Version, Digest): a higher version always wins, and equal versions —
// concurrent stamps from different writers — fall back to the content
// digest, so every replica that sees both candidates picks the same winner
// and anti-entropy cannot ping-pong a conflicted record between replicas.
// An exact re-put (equal version and digest) is not a write: the
// record is already stored, so it reports false and Disk appends nothing —
// replica pushes stay idempotent without costing WAL bytes or an fsync.
// Shared by Mem and Disk's index.
func putEntry(items map[uint64][]Entry, e Entry) bool {
	list := items[e.Key]
	for i := range list {
		if list[i].sameIdentity(e) {
			if e.Version < list[i].Version {
				return false
			}
			if e.Version == list[i].Version && e.Digest() <= list[i].Digest() {
				return false
			}
			list[i] = e
			return true
		}
	}
	items[e.Key] = append(list, e)
	return true
}

// deleteEntry removes the identified record from a memtable.
func deleteEntry(items map[uint64][]Entry, key uint64, storage, access string, pointer bool) bool {
	list := items[key]
	for i := range list {
		if list[i].Key == key && list[i].Storage == storage && list[i].Access == access &&
			list[i].IsPointer() == pointer {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(items, key)
			} else {
				items[key] = list
			}
			return true
		}
	}
	return false
}

// memtable is the versioned in-memory index both stores are built on: the
// map and its lock, plus the read half of Store. It has no Put or Delete,
// so an embedding store must write through its own methods — Disk cannot
// inherit a write that skips the log.
type memtable struct {
	mu    sync.RWMutex
	items map[uint64][]Entry
}

func newMemtable() memtable {
	return memtable{items: make(map[uint64][]Entry)}
}

// Get implements Store.
func (t *memtable) Get(key uint64, dst []Entry) []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append(dst, t.items[key]...)
}

// Keys implements Store.
func (t *memtable) Keys() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.items)
}

// ForEach implements Store.
func (t *memtable) ForEach(fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, list := range t.items {
		for _, e := range list {
			if !fn(e) {
				return
			}
		}
	}
}

// Mem is the volatile Store: a memtable with no log under it. Sync is a
// no-op because nothing outlives the process anyway — the interface
// contract ("durable after Sync") holds vacuously.
type Mem struct {
	memtable
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{memtable: newMemtable()}
}

// Put implements Store.
func (m *Mem) Put(e Entry) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return putEntry(m.items, e), nil
}

// Delete implements Store.
func (m *Mem) Delete(key uint64, storage, access string, pointer bool) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return deleteEntry(m.items, key, storage, access, pointer), nil
}

// Sync implements Store.
func (m *Mem) Sync() error { return nil }

// Close implements Store.
func (m *Mem) Close() error { return nil }
