package canonstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	for i := uint64(0); i < 100; i++ {
		v := []byte(fmt.Sprintf("value-%d", i))
		want[i] = v
		if _, err := d.Put(Entry{Key: i, Value: v, Storage: "s", Access: "", Version: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(42, "s", "", false); err != nil {
		t.Fatal(err)
	}
	delete(want, 42)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Keys() != len(want) {
		t.Fatalf("Keys() = %d after reopen, want %d", d2.Keys(), len(want))
	}
	for k, v := range want {
		got := d2.Get(k, nil)
		if len(got) != 1 || !bytes.Equal(got[0].Value, v) || got[0].Version != k+1 {
			t.Fatalf("key %d after reopen: %+v", k, got)
		}
	}
	if got := d2.Get(42, nil); len(got) != 0 {
		t.Fatalf("deleted key resurrected: %+v", got)
	}
}

// segFiles counts the WAL segment files under dir, active included.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestDiskRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force ~30 rotations; every rotation that seals the
	// compactMinSegments-th segment compacts before the Put returns.
	const segBytes = 2 << 10
	d, err := Open(dir, Options{segmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 128)
	var rotations, active int
	for i := uint64(0); i < 400; i++ {
		e := Entry{Key: i % 50, Value: val, Storage: "s", Version: i + 1}
		if _, err := d.Put(e); err != nil {
			t.Fatal(err)
		}
		if active += len(appendRecord(nil, recPut, appendEntry(nil, e))); active >= segBytes {
			rotations++
			active = 0
		}
		if n := segFiles(t, dir); n > compactMinSegments {
			t.Fatalf("after put %d: %d segment files, want at most %d", i, n, compactMinSegments)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// The first compaction seals compactMinSegments segments; each later
	// one seals compactMinSegments-1 more on top of the merged segment.
	if want := int64(rotations-1) / (compactMinSegments - 1); d.m.compactions.Value() != want || want == 0 {
		t.Fatalf("%d compactions after %d rotations, want %d (and at least one)", d.m.compactions.Value(), rotations, want)
	}
	if f := d.m.compactFail.Value(); f != 0 {
		t.Fatalf("%d compactions failed", f)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Keys() != 50 {
		t.Fatalf("Keys() = %d after compacted reopen, want 50", d2.Keys())
	}
	for i := uint64(0); i < 50; i++ {
		got := d2.Get(i, nil)
		if len(got) != 1 || !bytes.Equal(got[0].Value, val) {
			t.Fatalf("key %d after compaction: %d entries", i, len(got))
		}
		// The surviving version must be the newest write for that key.
		if got[0].Version < 351 {
			t.Fatalf("key %d kept stale version %d", i, got[0].Version)
		}
	}
}

// TestDiskCompactionFailureKeepsSegments blocks the merged segment's
// temporary name with a directory: the aborted merge is counted, keeps every
// sealed segment, leaves the write path working, and loses nothing — at the
// rotation, at a reopen that retries it, and at the reopen that finally
// compacts once the blocker is gone.
func TestDiskCompactionFailureKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, fmt.Sprintf("wal-%016d.log.tmp", 1))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{segmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("z"), 100)
	var acked []Entry
	put := func(d *Disk, e Entry) {
		t.Helper()
		if _, err := d.Put(e); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, e)
	}
	for i := uint64(0); d.m.compactFail.Value() == 0; i++ {
		if i == 1000 {
			t.Fatal("no compaction was attempted")
		}
		put(d, Entry{Key: i, Value: val, Version: 1})
	}
	if f, c := d.m.compactFail.Value(), d.m.compactions.Value(); f != 1 || c != 0 {
		t.Fatalf("compaction failures %d, compactions %d; want 1 and 0", f, c)
	}
	if n := segFiles(t, dir); n != compactMinSegments+1 {
		t.Fatalf("%d segment files after the failed merge, want every sealed one plus the active: %d", n, compactMinSegments+1)
	}
	put(d, Entry{Key: 1 << 40, Value: []byte("after"), Version: 1})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(unblock bool) *Disk {
		t.Helper()
		if unblock {
			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range acked {
			if got := d.Get(e.Key, nil); len(got) != 1 || !reflect.DeepEqual(got[0], e) {
				t.Fatalf("acked key %d after reopen: %+v", e.Key, got)
			}
		}
		return d
	}
	d = check(false)
	if f := d.m.compactFail.Value(); f != 1 {
		t.Fatalf("reopen with the blocker: %d compaction failures, want 1", f)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = check(true)
	defer d.Close()
	if c := d.m.compactions.Value(); c != 1 {
		t.Fatalf("reopen without the blocker: %d compactions, want 1", c)
	}
	if n := segFiles(t, dir); n != 2 {
		t.Fatalf("%d segment files after Open compacted, want the merged one plus the active", n)
	}
}

func TestDiskCorruptSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{segmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("y"), 100)
	for i := uint64(0); i < 60; i++ {
		if _, err := d.Put(Entry{Key: i, Value: val, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) < 2 {
		t.Fatalf("test needs >= 2 segments, got %d", len(segs))
	}
	// Flip a byte in the middle of the FIRST segment: that is sealed
	// history, so Open must refuse rather than silently drop acked data.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

// The WAL has no format header, so a data directory written by a build with
// another put layout (here: the one that stored a placement level) must be
// told apart by the records themselves: the old record passes its CRC and
// fails the strict decode, which is corruption wherever it sits — in the
// newest segment too, where a frame that fails its checksum would be a torn
// tail and trimmed. Open refuses the directory and leaves every byte.
func TestDiskOldLayoutRefusedNotTrimmed(t *testing.T) {
	cur := appendRecord(nil, recPut, appendEntry(nil, Entry{Key: 1, Value: []byte("cur"), Version: 1}))
	for _, level := range []int{0, 1, -1, 100} {
		old := appendRecord(nil, recPut, appendOldEntry(nil, Entry{Key: 2, Value: []byte("old"), Storage: "a", Version: 300}, level))
		if _, err := decodeEntry(old[walHeaderLen:]); !errors.Is(err, errWALDecode) {
			t.Fatalf("level %d: old-layout payload decoded: %v", level, err)
		}
		withOld := append(append([]byte(nil), cur...), old...)
		for name, segs := range map[string][2][]byte{
			"sealed segment": {withOld, cur},
			"newest segment": {cur, withOld},
		} {
			dir := t.TempDir()
			for i, data := range segs {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", i+1)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if d, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				if err == nil {
					d.Close()
				}
				t.Fatalf("level %d, old record in the %s: Open = %v, want ErrCorrupt", level, name, err)
			}
			for i, data := range segs {
				got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%016d.log", i+1)))
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("level %d, old record in the %s: segment %d changed by the refused Open (err %v)", level, name, i+1, err)
				}
			}
		}
	}
}

func TestDiskTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(Entry{Key: 1, Value: []byte("keep"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage to the newest segment: a torn tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	newest := segs[len(segs)-1]
	// Close wrote nothing after Sync, so the newest non-empty segment
	// holds the record; find it.
	for i := len(segs) - 1; i >= 0; i-- {
		if fi, _ := os.Stat(segs[i]); fi != nil && fi.Size() > 0 {
			newest = segs[i]
			break
		}
	}
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(newest)

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer d2.Close()
	if got := d2.Get(1, nil); len(got) != 1 || string(got[0].Value) != "keep" {
		t.Fatalf("acked record lost: %+v", got)
	}
	after, _ := os.Stat(newest)
	if after.Size() != before.Size()-3 {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestDiskClosedOps(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(Entry{Key: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// walFiles reads every segment file under dir, keyed by name.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestDiskExactRePutIsNotAWrite pins the replica-push fast path: putting a
// record the store already holds appends nothing and fsyncs nothing, so the
// log — and what recovery replays from it — is byte-identical.
func TestDiskExactRePutIsNotAWrite(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, 50)
	for i := range entries {
		entries[i] = Entry{
			Key: uint64(i), Value: []byte(fmt.Sprintf("value-%d", i)),
			Storage: "s", Access: "", Version: uint64(i) + 1,
		}
		if applied, err := d.Put(entries[i]); err != nil || !applied {
			t.Fatalf("first put %d: applied=%v err=%v", i, applied, err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	appends, walBytes, fsyncs := d.m.appends.Value(), d.m.walBytes.Value(), d.m.fsyncs.Value()
	before := walFiles(t, dir)

	for round := 0; round < 5; round++ {
		for i, e := range entries {
			if applied, err := d.Put(e); err != nil || applied {
				t.Fatalf("re-put %d: applied=%v err=%v, want false, nil", i, applied, err)
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b, f := d.m.appends.Value(), d.m.walBytes.Value(), d.m.fsyncs.Value(); a != appends || b != walBytes || f != fsyncs {
		t.Fatalf("re-puts moved the WAL: appends %d→%d bytes %d→%d fsyncs %d→%d", appends, a, walBytes, b, fsyncs, f)
	}
	if after := walFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("segment files changed across exact re-puts")
	}

	// A real write after the quiet stretch still reaches the log and the
	// next Sync still fsyncs it.
	if applied, err := d.Put(Entry{Key: 0, Value: []byte("newer"), Storage: "s", Version: 100}); err != nil || !applied {
		t.Fatalf("overwrite: applied=%v err=%v", applied, err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if f := d.m.fsyncs.Value(); f != fsyncs+1 {
		t.Fatalf("fsyncs = %d after a real write, want %d", f, fsyncs+1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Keys() != len(entries) {
		t.Fatalf("Keys() = %d after reopen, want %d", d2.Keys(), len(entries))
	}
	for i, e := range entries[1:] {
		if got := d2.Get(e.Key, nil); len(got) != 1 || !reflect.DeepEqual(got[0], e) {
			t.Fatalf("key %d after reopen: %+v, want %+v", i+1, got, e)
		}
	}
}

// TestDiskCleanSyncFailsOnLatchedError: the nothing-to-flush shortcut must
// never turn a broken log into an ack.
func TestDiskCleanSyncFailsOnLatchedError(t *testing.T) {
	d, err := Open(t.TempDir(), Options{testWrapFile: failAfter(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Put(Entry{Key: 1, Value: []byte("fits"), Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put(Entry{Key: 2, Value: bytes.Repeat([]byte("x"), 128), Version: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("Sync over a failing writer = %v, want the injected error", err)
	}
	// The state a failed rotation leaves: the old segment's fsync went
	// through (nothing unsynced) before opening the next one failed.
	d.mu.Lock()
	d.unsynced = false
	d.mu.Unlock()
	if err := d.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("clean Sync on a latched store = %v, want the injected error", err)
	}
}

// faultFile fails one kind of segment-file operation while armed: "write",
// "sync" or "close". A failing Close still closes the file underneath.
type faultFile struct {
	segmentFile
	op    string
	armed *bool
}

func (f faultFile) fails(op string) bool { return *f.armed && f.op == op }

func (f faultFile) Write(p []byte) (int, error) {
	if f.fails("write") {
		return 0, errInjected
	}
	return f.segmentFile.Write(p)
}

func (f faultFile) Sync() error {
	if f.fails("sync") {
		return errInjected
	}
	return f.segmentFile.Sync()
}

func (f faultFile) Close() error {
	err := f.segmentFile.Close()
	if f.fails("close") {
		return errInjected
	}
	return err
}

// TestDiskBarrierErrors injects a failed Write, Sync or Close into each
// place the write path meets its segment files. On the active segment the
// error reaches the caller and latches: no later Put or Sync succeeds, so a
// broken log never acks again. On a compaction's merged segment the merge
// aborts and is counted, every sealed segment stays, the write path keeps
// working, and a reopen finds every acked record.
func TestDiskBarrierErrors(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 100)
	for _, tc := range []struct {
		op string
		at string // put (a record larger than the append buffer), sync, rotation, close or compaction
	}{
		{"write", "put"},
		{"write", "sync"}, {"sync", "sync"},
		{"write", "rotation"}, {"sync", "rotation"}, {"close", "rotation"},
		{"write", "close"}, {"sync", "close"}, {"close", "close"},
		{"write", "compaction"}, {"sync", "compaction"}, {"close", "compaction"},
	} {
		t.Run(tc.op+" at "+tc.at, func(t *testing.T) {
			dir := t.TempDir()
			// Small segments rotate and compact within a few puts; the put
			// case's record overflows the 64 KiB append buffer but must not
			// fill a segment, or the rotation would report its error.
			segBytes := int64(1 << 10)
			if tc.at == "put" {
				segBytes = 1 << 20
			}
			armed := false
			d, err := Open(dir, Options{segmentBytes: segBytes, testWrapFile: func(f segmentFile) segmentFile {
				merged := strings.HasSuffix(f.(*os.File).Name(), ".tmp")
				if merged != (tc.at == "compaction") {
					return f
				}
				return faultFile{segmentFile: f, op: tc.op, armed: &armed}
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			var acked []Entry
			put := func(e Entry) error {
				if _, err := d.Put(e); err != nil {
					return err
				}
				if err := d.Sync(); err != nil {
					return err
				}
				acked = append(acked, e)
				return nil
			}
			if err := put(Entry{Key: 0, Value: val, Version: 1}); err != nil {
				t.Fatal(err)
			}
			armed = true

			if tc.at == "compaction" {
				for i := uint64(1); d.m.compactFail.Value() == 0; i++ {
					if i == 1000 || d.m.compactions.Value() != 0 {
						t.Fatalf("after %d puts: %d compactions, none failed", i, d.m.compactions.Value())
					}
					if err := put(Entry{Key: i, Value: val, Version: 1}); err != nil {
						t.Fatalf("put %d beside the failing merge: %v", i, err)
					}
				}
				if f, c := d.m.compactFail.Value(), d.m.compactions.Value(); f != 1 || c != 0 {
					t.Fatalf("compaction failures %d, compactions %d; want 1 and 0", f, c)
				}
				if n := segFiles(t, dir); n != compactMinSegments+1 {
					t.Fatalf("%d segment files after the failed merge, want every sealed one plus the active: %d", n, compactMinSegments+1)
				}
				if err := put(Entry{Key: 1 << 40, Value: []byte("after"), Version: 1}); err != nil {
					t.Fatalf("put after the failed merge: %v", err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				d2, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer d2.Close()
				for _, e := range acked {
					if got := d2.Get(e.Key, nil); len(got) != 1 || !reflect.DeepEqual(got[0], e) {
						t.Fatalf("acked key %d after reopen: %+v", e.Key, got)
					}
				}
				return
			}

			var got error
			switch tc.at {
			case "put":
				_, got = d.Put(Entry{Key: 1, Value: bytes.Repeat([]byte("x"), 128<<10), Version: 1})
			case "sync":
				if _, err := d.Put(Entry{Key: 1, Value: val, Version: 1}); err != nil {
					t.Fatal(err)
				}
				got = d.Sync()
			case "rotation":
				for i := uint64(1); got == nil; i++ {
					if i == 100 {
						t.Fatal("no rotation")
					}
					_, got = d.Put(Entry{Key: i, Value: val, Version: 1})
				}
				if d.activeBytes < d.opts.segmentBytes || len(d.sealed) != 0 {
					t.Fatalf("the failing put left %d bytes in the active segment and %d sealed: not the rotation", d.activeBytes, len(d.sealed))
				}
			case "close":
				if _, err := d.Put(Entry{Key: 1, Value: val, Version: 1}); err != nil {
					t.Fatal(err)
				}
				got = d.Close()
			}
			if !errors.Is(got, errInjected) {
				t.Fatalf("%s at %s returned %v, want the injected error", tc.op, tc.at, got)
			}
			if tc.at != "close" && !errors.Is(d.werr, errInjected) {
				t.Fatalf("write error not latched: werr = %v", d.werr)
			}
			if _, err := d.Put(Entry{Key: 1 << 40, Value: val, Version: 1}); err == nil {
				t.Fatal("Put succeeded after the failure")
			}
			if err := d.Sync(); err == nil {
				t.Fatal("Sync succeeded after the failure")
			}
		})
	}
}
