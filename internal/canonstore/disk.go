// Disk: the durable log-structured Store.
//
// Layout: a data directory of WAL segment files named wal-%016d.log with
// strictly increasing sequence numbers. Exactly one segment (the highest
// sequence) is active and appended to through a buffered writer; all lower
// segments are sealed — flushed, fsynced and never written again. The full
// key→entries index (memtable) lives in memory: disk buys durability, not
// capacity, which keeps reads lock-cheap and recovery a pure replay.
//
// Lifecycle:
//
//	Open    — replay every segment in sequence order into the memtable.
//	          A torn tail (crash mid-append) is legal only in the newest
//	          segment and is truncated away; framing damage in a sealed
//	          segment is ErrCorrupt. A fresh active segment is then opened.
//	Put     — apply to the memtable (last-write-wins by Version), append
//	          one framed record to the active segment's buffer.
//	Sync    — flush the buffer and fsync the active segment: the
//	          durability barrier nodes invoke before acking a store RPC.
//	          A no-op when nothing was appended since the last fsync.
//	rotate  — when the active segment exceeds Options.SegmentBytes it is
//	          sealed and a new one opened; rotation nudges the compactor.
//	compact — a background goroutine merges every sealed segment into one
//	          snapshot segment (live entries only, tombstones elided),
//	          atomically renames it over the oldest sealed segment, then
//	          deletes the rest oldest-first. Deleting oldest-first keeps
//	          any crash prefix replayable: every surviving record is newer
//	          than every deleted one, so replaying [merged, survivors...,
//	          active] converges to the same state.
//
// See docs/STORAGE.md for the record framing and the crash-safety
// argument in full.
package canonstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/canon-dht/canon/internal/telemetry"
)

// WAL metric names. One canond process hosts one store, so names carry no
// store label; pass the node's registry in Options.Telemetry to expose
// them on the same /metrics endpoint.
const (
	mnWALAppends     = "canon_store_wal_appends_total"
	mnWALBytes       = "canon_store_wal_bytes_total"
	mnWALFsyncs      = "canon_store_wal_fsyncs_total"
	mnWALSegments    = "canon_store_wal_segments"
	mnWALCompactions = "canon_store_wal_compactions_total"
	mnWALReplayed    = "canon_store_wal_replayed_records_total"
	mnWALTornTails   = "canon_store_wal_torn_tails_total"
)

// Options configures a Disk store; the zero value means the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// CompactMinSegments triggers compaction when at least this many
	// sealed segments exist (default 4).
	CompactMinSegments int
	// Telemetry receives the canon_store_wal_* series; nil means a
	// private registry (the metrics are still maintained, just unread).
	Telemetry *telemetry.Registry

	// testWrapWriter, when set, wraps the active segment's file writer.
	// Fault-injection tests use it to sever the write path at an exact
	// byte offset; production code leaves it nil.
	testWrapWriter func(io.Writer) io.Writer
}

type diskMetrics struct {
	appends     *telemetry.Counter
	walBytes    *telemetry.Counter
	fsyncs      *telemetry.Counter
	segments    *telemetry.Gauge
	compactions *telemetry.Counter
	replayed    *telemetry.Counter
	tornTails   *telemetry.Counter
}

func newDiskMetrics(reg *telemetry.Registry) diskMetrics {
	return diskMetrics{
		appends:     reg.Counter(mnWALAppends, "WAL records appended (puts and tombstones)"),
		walBytes:    reg.Counter(mnWALBytes, "framed WAL bytes appended"),
		fsyncs:      reg.Counter(mnWALFsyncs, "fsync barriers completed on the active segment"),
		segments:    reg.Gauge(mnWALSegments, "WAL segment files on disk, active included"),
		compactions: reg.Counter(mnWALCompactions, "sealed-segment compactions completed"),
		replayed:    reg.Counter(mnWALReplayed, "WAL records replayed during recovery"),
		tornTails:   reg.Counter(mnWALTornTails, "torn segment tails discarded during recovery"),
	}
}

// walSeg is one sealed segment on disk.
type walSeg struct {
	seq  uint64
	path string
}

// Disk is the durable Store. See the package and file comments for the
// design; Mem documents the shared memtable semantics.
type Disk struct {
	dir  string
	opts Options
	m    diskMetrics

	mu          sync.RWMutex
	items       map[uint64][]Entry
	sealed      []walSeg
	seq         uint64 // active segment sequence
	f           *os.File
	bw          *bufio.Writer
	activeBytes int64
	unsynced    bool   // records appended since the last successful fsync
	scratch     []byte // payload encode buffer, reused across appends
	rec         []byte // frame encode buffer, reused across appends
	werr        error  // first write-path error; latched, fails every later op
	closed      bool

	compactCh chan struct{}
	stop      chan struct{}
	done      chan struct{}
}

var _ Store = (*Disk)(nil)
var _ Store = (*Mem)(nil)

// Open replays the WAL under dir (creating it if needed) and returns a
// ready store with a fresh active segment.
func Open(dir string, opts Options) (*Disk, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.CompactMinSegments <= 0 {
		opts.CompactMinSegments = 4
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("canonstore: %w", err)
	}
	d := &Disk{
		dir:   dir,
		opts:  opts,
		m:     newDiskMetrics(reg),
		items: make(map[uint64][]Entry),
	}
	if err := d.replay(); err != nil {
		return nil, err
	}
	d.seq++
	if err := d.openActiveLocked(); err != nil {
		return nil, err
	}
	d.compactCh = make(chan struct{}, 1)
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go d.compactLoop()
	if len(d.sealed) >= d.opts.CompactMinSegments {
		d.compactCh <- struct{}{}
	}
	return d, nil
}

// replay loads every existing segment into the memtable, in sequence
// order, truncating a torn tail off the newest segment.
func (d *Disk) replay() error {
	paths, err := filepath.Glob(filepath.Join(d.dir, "wal-*.log"))
	if err != nil {
		return fmt.Errorf("canonstore: %w", err)
	}
	segs := make([]walSeg, 0, len(paths))
	for _, p := range paths {
		seq, err := parseSegSeq(p)
		if err != nil {
			return fmt.Errorf("%w: unrecognized segment name %s", ErrCorrupt, filepath.Base(p))
		}
		segs = append(segs, walSeg{seq: seq, path: p})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("canonstore: %w", err)
		}
		consumed, err := scanRecords(data, d.applyRecord)
		if err != nil {
			if !errors.Is(err, errTorn) || i != len(segs)-1 {
				return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(seg.path), err)
			}
			// A torn tail on the newest segment is the expected remnant of
			// a crash mid-append: the un-acked suffix is discarded so the
			// segment ends on a record boundary again.
			if terr := os.Truncate(seg.path, int64(consumed)); terr != nil {
				return fmt.Errorf("canonstore: truncating torn tail: %w", terr)
			}
			d.m.tornTails.Inc()
		}
		d.sealed = append(d.sealed, seg)
		if seg.seq > d.seq {
			d.seq = seg.seq
		}
	}
	return nil
}

// applyRecord replays one intact WAL record into the memtable. A record
// that passed its CRC but fails payload decoding is corruption, never a
// torn tail.
func (d *Disk) applyRecord(typ byte, payload []byte) error {
	switch typ {
	case recPut:
		e, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		putEntry(d.items, e)
	case recDelete:
		key, storage, access, pointer, err := decodeDelete(payload)
		if err != nil {
			return err
		}
		deleteEntry(d.items, key, storage, access, pointer)
	default:
		return fmt.Errorf("%w: unknown record type %d", errWALDecode, typ)
	}
	d.m.replayed.Inc()
	return nil
}

func (d *Disk) segPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%016d.log", seq))
}

func parseSegSeq(path string) (uint64, error) {
	base := filepath.Base(path)
	s := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
	return strconv.ParseUint(s, 10, 64)
}

// openActiveLocked creates the segment file for d.seq and points the
// write path at it.
func (d *Disk) openActiveLocked() error {
	f, err := os.OpenFile(d.segPath(d.seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("canonstore: %w", err)
	}
	d.f = f
	var w io.Writer = f
	if d.opts.testWrapWriter != nil {
		w = d.opts.testWrapWriter(f)
	}
	d.bw = bufio.NewWriterSize(w, 64<<10)
	d.activeBytes = 0
	d.m.segments.Set(float64(len(d.sealed) + 1))
	return nil
}

// Put implements Store: memtable apply then WAL append. The write is
// durable only after the next Sync.
func (d *Disk) Put(e Entry) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if d.werr != nil {
		return false, d.werr
	}
	if !putEntry(d.items, e) {
		return false, nil
	}
	d.scratch = appendEntry(d.scratch[:0], e)
	return true, d.appendLocked(recPut, d.scratch)
}

// Delete implements Store, appending a tombstone record.
func (d *Disk) Delete(key uint64, storage, access string, pointer bool) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if d.werr != nil {
		return false, d.werr
	}
	if !deleteEntry(d.items, key, storage, access, pointer) {
		return false, nil
	}
	d.scratch = appendDelete(d.scratch[:0], key, storage, access, pointer)
	return true, d.appendLocked(recDelete, d.scratch)
}

// appendLocked frames and buffers one record, rotating the active segment
// when it fills. Any write error latches: a store whose log is broken must
// never ack again.
func (d *Disk) appendLocked(typ byte, payload []byte) error {
	d.rec = appendRecord(d.rec[:0], typ, payload)
	if _, err := d.bw.Write(d.rec); err != nil {
		d.werr = err
		return err
	}
	d.activeBytes += int64(len(d.rec))
	d.unsynced = true
	d.m.appends.Inc()
	d.m.walBytes.Add(int64(len(d.rec)))
	if d.activeBytes >= d.opts.SegmentBytes {
		if err := d.rotateLocked(); err != nil {
			d.werr = err
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (d *Disk) rotateLocked() error {
	if err := d.bw.Flush(); err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	d.m.fsyncs.Inc()
	d.unsynced = false
	d.sealed = append(d.sealed, walSeg{seq: d.seq, path: d.segPath(d.seq)})
	d.seq++
	if err := d.openActiveLocked(); err != nil {
		return err
	}
	if len(d.sealed) >= d.opts.CompactMinSegments {
		select {
		case d.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// Get implements Store.
func (d *Disk) Get(key uint64, dst []Entry) []Entry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append(dst, d.items[key]...)
}

// Keys implements Store.
func (d *Disk) Keys() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.items)
}

// ForEach implements Store.
func (d *Disk) ForEach(fn func(Entry) bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, list := range d.items {
		for _, e := range list {
			if !fn(e) {
				return
			}
		}
	}
}

// Sync implements Store: flush the append buffer and fsync the active
// segment. After it returns nil, every prior Put/Delete survives a crash.
// When nothing was appended since the last successful fsync every prior
// write is already durable and Sync returns at once, so concurrent store
// handlers whose records one barrier covered share that one fsync.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.werr != nil {
		return d.werr
	}
	if !d.unsynced {
		return nil
	}
	if err := d.bw.Flush(); err != nil {
		d.werr = err
		return err
	}
	if err := d.f.Sync(); err != nil {
		d.werr = err
		return err
	}
	d.m.fsyncs.Inc()
	d.unsynced = false
	return nil
}

// Close stops the compactor, flushes and seals the active segment.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	stop, done := d.stop, d.done
	d.mu.Unlock()
	close(stop)
	<-done
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	if d.werr == nil {
		if err := d.bw.Flush(); err != nil {
			first = err
		} else if err := d.f.Sync(); err != nil {
			first = err
		}
	}
	if err := d.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// compactLoop runs merges in the background until Close.
func (d *Disk) compactLoop() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case <-d.compactCh:
			d.compactOnce()
		}
	}
}

// compactOnce merges every currently sealed segment into one snapshot
// segment. The merge runs off-lock against a memtable snapshot; only the
// final bookkeeping retakes the lock. Failures abort and keep the old
// segments — compaction is an optimization, never a durability hazard.
func (d *Disk) compactOnce() {
	d.mu.Lock()
	if d.closed || len(d.sealed) < d.opts.CompactMinSegments {
		d.mu.Unlock()
		return
	}
	set := append([]walSeg(nil), d.sealed...)
	snap := make([]Entry, 0, len(d.items))
	for _, list := range d.items {
		snap = append(snap, list...)
	}
	d.mu.Unlock()

	merged, err := d.writeMergedSegment(set[0].seq, snap)
	if err != nil {
		return
	}
	// The merged segment takes the oldest sealed sequence number, so it
	// replays before every surviving record. Rename is atomic; the
	// leftovers are then deleted oldest-first so that any crash prefix of
	// the deletions leaves only records newer than everything deleted —
	// replaying [merged, survivors..., active] still converges.
	if err := os.Rename(merged, set[0].path); err != nil {
		os.Remove(merged)
		return
	}
	d.syncDir()
	for _, s := range set[1:] {
		if os.Remove(s.path) != nil {
			break
		}
	}
	d.syncDir()

	d.mu.Lock()
	d.sealed = append([]walSeg{set[0]}, d.sealed[len(set):]...)
	d.m.compactions.Inc()
	d.m.segments.Set(float64(len(d.sealed) + 1))
	d.mu.Unlock()
}

// writeMergedSegment writes a snapshot of live entries as one fully synced
// segment file next to the target name and returns its temporary path.
func (d *Disk) writeMergedSegment(seq uint64, snap []Entry) (string, error) {
	tmp := d.segPath(seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	var payload, rec []byte
	for _, e := range snap {
		payload = appendEntry(payload[:0], e)
		rec = appendRecord(rec[:0], recPut, payload)
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// syncDir fsyncs the data directory so renames and deletes are themselves
// durable; best effort, as not every filesystem supports it.
func (d *Disk) syncDir() {
	f, err := os.Open(d.dir)
	if err != nil {
		return
	}
	//canonvet:ignore durabilityerr -- directory fsync is best-effort by design: not every filesystem supports it, and the data-file barriers already ran
	_ = f.Sync()
	//canonvet:ignore durabilityerr -- closing a read-only directory handle on the same best-effort path persists nothing
	_ = f.Close()
}
