package canonstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	entries := []Entry{
		{},
		{Key: 1, Value: []byte("v"), Storage: "a/b", Access: "a", Version: 9},
		{Key: ^uint64(0), Value: []byte{}, PtrID: 3, PtrName: "x/y", PtrAddr: "h:1"},
	}
	var log []byte
	for _, e := range entries {
		log = appendRecord(log, recPut, appendEntry(nil, e))
	}
	log = appendRecord(log, recDelete, appendDelete(nil, 7, "s", "a", true))

	var got []Entry
	dels := 0
	consumed, err := scanRecords(log, func(typ byte, payload []byte) error {
		switch typ {
		case recPut:
			e, err := decodeEntry(payload)
			if err != nil {
				return err
			}
			got = append(got, e)
		case recDelete:
			key, storage, access, pointer, err := decodeDelete(payload)
			if err != nil {
				return err
			}
			if key != 7 || storage != "s" || access != "a" || !pointer {
				t.Fatalf("delete decoded wrong: %d %q %q %v", key, storage, access, pointer)
			}
			dels++
		}
		return nil
	})
	if err != nil || consumed != len(log) {
		t.Fatalf("scan: consumed %d/%d, err %v", consumed, len(log), err)
	}
	if dels != 1 || len(got) != len(entries) {
		t.Fatalf("got %d puts %d deletes", len(got), dels)
	}
	for i, e := range entries {
		if !bytes.Equal(got[i].Value, e.Value) || got[i].Key != e.Key ||
			got[i].Version != e.Version || got[i].PtrAddr != e.PtrAddr {
			t.Fatalf("entry %d round-trip: got %+v want %+v", i, got[i], e)
		}
		// The nil/empty value distinction must survive.
		if (got[i].Value == nil) != (e.Value == nil) {
			t.Fatalf("entry %d nil-ness lost", i)
		}
	}
}

func TestScanRecordsTornTails(t *testing.T) {
	whole := appendRecord(nil, recPut, appendEntry(nil, Entry{Key: 5, Value: []byte("hello")}))
	for cut := 1; cut < len(whole); cut++ {
		good := appendRecord(nil, recPut, appendEntry(nil, Entry{Key: 4, Value: []byte("ok")}))
		log := append(append([]byte(nil), good...), whole[:cut]...)
		n := 0
		consumed, err := scanRecords(log, func(byte, []byte) error { n++; return nil })
		if !errors.Is(err, errTorn) {
			t.Fatalf("cut %d: err = %v, want errTorn", cut, err)
		}
		if consumed != len(good) || n != 1 {
			t.Fatalf("cut %d: consumed %d records %d", cut, consumed, n)
		}
	}
	// A flipped payload byte is a checksum mismatch, also torn.
	bad := append([]byte(nil), whole...)
	bad[len(bad)-1] ^= 1
	if _, err := scanRecords(bad, func(byte, []byte) error { return nil }); !errors.Is(err, errTorn) {
		t.Fatalf("flipped byte: err = %v, want errTorn", err)
	}
}

// failFile passes bytes through until the store's write budget runs out,
// then fails every write — the crash model: a process dies mid-write,
// leaving an arbitrary prefix of the last write on disk. The budget is
// shared by every segment file the store opens, so it runs across
// rotations and compactions.
type failFile struct {
	segmentFile
	budget *int // bytes left; negative once a write has failed
}

var errInjected = errors.New("injected write failure")

// failAfter is a testWrapFile hook whose files fail once budget bytes have
// been written through them.
func failAfter(budget int) func(segmentFile) segmentFile {
	return func(f segmentFile) segmentFile { return failFile{segmentFile: f, budget: &budget} }
}

func (f failFile) Write(p []byte) (int, error) {
	if len(p) <= *f.budget {
		*f.budget -= len(p)
		return f.segmentFile.Write(p)
	}
	n := max(*f.budget, 0)
	*f.budget = -1
	if n > 0 {
		_, _ = f.segmentFile.Write(p[:n])
	}
	return n, errInjected
}

// TestWALCrashRecovery is the crash-safety property test: kill the WAL
// write path at a random byte offset, reopen, and assert that (1) every
// acked write survives with its exact content and (2) nothing the writer
// never wrote appears — the torn tail is discarded, not misparsed.
func TestWALCrashRecovery(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round) * 7919))
		dir := t.TempDir()
		d, err := Open(dir, Options{segmentBytes: 8 << 10, testWrapFile: failAfter(1 + rng.Intn(48<<10))})
		if err != nil {
			t.Fatal(err)
		}

		type ident struct {
			key             uint64
			storage, access string
		}
		acked := map[ident]Entry{}
		attempted := map[ident][]Entry{}
		for i := 0; i < 4000; i++ {
			e := Entry{
				Key:     uint64(rng.Intn(200)),
				Value:   randBytes(rng, rng.Intn(256)),
				Storage: fmt.Sprintf("d%d", rng.Intn(3)),
				Version: uint64(i + 1),
			}
			id := ident{e.Key, e.Storage, e.Access}
			attempted[id] = append(attempted[id], e)
			_, perr := d.Put(e)
			serr := d.Sync()
			if perr == nil && serr == nil {
				acked[id] = e
			} else {
				break // the store latched its write error: no more acks
			}
		}
		_ = d.Close()

		d2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("round %d: reopen after crash: %v", round, err)
		}
		for id, want := range acked {
			got := d2.Get(id.key, nil)
			found := false
			for _, e := range got {
				if e.Storage != id.storage || e.Access != id.access || e.IsPointer() {
					continue
				}
				found = true
				// An unacked later write may have reached disk before the
				// fault byte — that is allowed (durability is one-way).
				// What is not allowed: losing the acked version or serving
				// a value that was never written.
				if e.Version < want.Version {
					t.Fatalf("round %d key %d: acked version %d lost, have %d",
						round, id.key, want.Version, e.Version)
				}
				matched := false
				for _, a := range attempted[id] {
					if a.Version == e.Version && bytes.Equal(a.Value, e.Value) {
						matched = true
						break
					}
				}
				if !matched {
					t.Fatalf("round %d key %d: recovered entry matches no attempted write: %+v",
						round, id.key, e)
				}
			}
			if !found {
				t.Fatalf("round %d: acked key %d (%q) missing after recovery", round, id.key, id.storage)
			}
		}
		_ = d2.Close()
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// appendOldEntry encodes a put payload in the layout of builds that still
// stored a placement level: a zigzag varint between PtrAddr and Version.
func appendOldEntry(b []byte, e Entry, level int) []byte {
	b = appendU64(b, e.Key)
	b = appendOptBytes(b, e.Value)
	b = appendStr(b, e.Storage)
	b = appendStr(b, e.Access)
	b = appendU64(b, e.PtrID)
	b = appendStr(b, e.PtrName)
	b = appendStr(b, e.PtrAddr)
	b = binary.AppendVarint(b, int64(level))
	return binary.AppendUvarint(b, e.Version)
}

// FuzzWALRecordDecode throws arbitrary bytes at the segment scanner and
// the payload codecs: no panic, no record accepted past a bad checksum,
// and every accepted put payload must re-encode byte-identically (the
// codec is canonical).
func FuzzWALRecordDecode(f *testing.F) {
	f.Add(appendRecord(nil, recPut, appendEntry(nil, Entry{Key: 1, Value: []byte("v"), Storage: "a/b"})))
	f.Add(appendRecord(nil, recDelete, appendDelete(nil, 2, "s", "", false)))
	whole := appendRecord(nil, recPut, appendEntry(nil, Entry{Key: 3, Value: bytes.Repeat([]byte("z"), 100)}))
	f.Add(whole[:len(whole)-5])
	f.Add([]byte{})
	f.Add(appendRecord(nil, recPut, appendOldEntry(nil, Entry{Key: 4, Value: []byte("old"), Storage: "a", Version: 7}, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		consumed, _ := scanRecords(data, func(typ byte, payload []byte) error {
			if typ == recPut {
				if e, err := decodeEntry(payload); err == nil {
					if re := appendEntry(nil, e); !bytes.Equal(re, payload) {
						t.Fatalf("non-canonical put payload: %x -> %x", payload, re)
					}
				}
			}
			return nil
		})
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
	})
}
