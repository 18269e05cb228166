// Disk: the durable log-structured Store.
//
// Layout: a data directory of WAL segment files named wal-%016d.log with
// strictly increasing sequence numbers. Exactly one segment (the highest
// sequence) is active and appended to through a buffered writer; all lower
// segments are sealed — flushed, fsynced and never written again. The full
// key→entries index (memtable) lives in memory: disk buys durability, not
// capacity, which keeps reads lock-cheap and recovery a pure replay.
//
// Every file operation runs on the caller's goroutine under the memtable
// lock, in program order: the store starts no goroutine of its own.
//
// Lifecycle:
//
//	Open    — replay every segment in sequence order into the memtable.
//	          A torn tail (crash mid-append) is legal only in the newest
//	          segment and is truncated away; framing damage in a sealed
//	          segment is ErrCorrupt. A fresh active segment is then opened,
//	          and the sealed history compacted if it is long enough.
//	Put     — apply to the memtable (last-write-wins by Version), append
//	          one framed record to the active segment's buffer.
//	Sync    — flush the buffer and fsync the active segment: the
//	          durability barrier nodes invoke before acking a store RPC.
//	          A no-op when nothing was appended since the last fsync.
//	rotate  — when the active segment reaches segmentBytes it is sealed
//	          and a new one opened; the rotation that seals the
//	          compactMinSegments-th segment compacts before returning.
//	compact — merge every sealed segment into one snapshot segment written
//	          from the memtable (live entries only, tombstones elided),
//	          atomically rename it over the oldest sealed segment, then
//	          delete the rest oldest-first. Deleting oldest-first keeps
//	          any crash prefix replayable: every surviving record is newer
//	          than every deleted one, so replaying [merged, survivors...,
//	          active] converges to the same state. The merge stalls this
//	          store's readers and writers while it writes the live set.
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
	mnWALCompactFail = "canon_store_wal_compaction_failures_total"
	mnWALReplayed    = "canon_store_wal_replayed_records_total"
	mnWALTornTails   = "canon_store_wal_torn_tails_total"
)

// compactMinSegments sealed segments trigger a compaction.
const compactMinSegments = 4

// Options configures a Disk store; the zero value means the defaults.
type Options struct {
	// Telemetry receives the canon_store_wal_* series; nil means a
	// private registry (the metrics are still maintained, just unread).
	Telemetry *telemetry.Registry

	// segmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB). Tests shrink it to force rotations.
	segmentBytes int64
	// testWrapFile, when set, wraps every segment file the store writes —
	// the active segment and a compaction's merged segment. Fault-injection
	// tests use it to fail a Write, Sync or Close; production code leaves it
	// nil.
	testWrapFile func(segmentFile) segmentFile
}

// segmentFile is what the write path needs of a segment file: an *os.File,
// or a fault-injecting wrapper around one.
type segmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

type diskMetrics struct {
	appends     *telemetry.Counter
	walBytes    *telemetry.Counter
	fsyncs      *telemetry.Counter
	segments    *telemetry.Gauge
	compactions *telemetry.Counter
	compactFail *telemetry.Counter
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
		compactFail: reg.Counter(mnWALCompactFail, "sealed-segment compactions aborted; the old segments were kept"),
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
// design. The embedded memtable serves Get, Keys and ForEach; its mutex
// also guards the segment and write-path state below.
type Disk struct {
	memtable
	dir  string
	opts Options
	m    diskMetrics

	sealed      []walSeg
	seq         uint64 // active segment sequence
	f           segmentFile
	bw          *bufio.Writer
	activeBytes int64
	unsynced    bool   // records appended since the last successful fsync
	scratch     []byte // payload encode buffer, reused across appends
	rec         []byte // frame encode buffer, reused across appends
	werr        error  // first write-path error; latched, fails every later op
	closed      bool
}

var _ Store = (*Disk)(nil)
var _ Store = (*Mem)(nil)

// Open replays the WAL under dir (creating it if needed) and returns a
// ready store with a fresh active segment.
func Open(dir string, opts Options) (*Disk, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = 4 << 20
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("canonstore: %w", err)
	}
	d := &Disk{
		memtable: newMemtable(),
		dir:      dir,
		opts:     opts,
		m:        newDiskMetrics(reg),
	}
	if err := d.replay(); err != nil {
		return nil, err
	}
	d.seq++
	if err := d.openActiveLocked(); err != nil {
		return nil, err
	}
	d.compactLocked()
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
// write path at it. The directory is fsynced right after the create: a
// file's fsync does not persist its directory entry, and without it a
// crash could drop a fresh segment whose writes were already acked.
func (d *Disk) openActiveLocked() error {
	f, err := os.OpenFile(d.segPath(d.seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("canonstore: %w", err)
	}
	d.syncDir()
	d.f = d.wrap(f)
	d.bw = bufio.NewWriterSize(d.f, 64<<10)
	d.activeBytes = 0
	d.m.segments.Set(float64(len(d.sealed) + 1))
	return nil
}

// wrap applies the fault-injection hook, if any, to a freshly opened
// segment file.
func (d *Disk) wrap(f *os.File) segmentFile {
	if d.opts.testWrapFile != nil {
		return d.opts.testWrapFile(f)
	}
	return f
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
	if d.activeBytes >= d.opts.segmentBytes {
		if err := d.rotateLocked(); err != nil {
			d.werr = err
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment, opens the next one and compacts
// once enough sealed segments have piled up.
func (d *Disk) rotateLocked() error {
	if err := d.barrierLocked(); err != nil {
		return err
	}
	if err := d.f.Close(); err != nil {
		return err
	}
	d.sealed = append(d.sealed, walSeg{seq: d.seq, path: d.segPath(d.seq)})
	d.seq++
	if err := d.openActiveLocked(); err != nil {
		return err
	}
	d.compactLocked()
	return nil
}

// barrierLocked flushes the append buffer and fsyncs the active segment:
// after it returns nil every record appended so far survives a crash.
func (d *Disk) barrierLocked() error {
	if err := d.bw.Flush(); err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.m.fsyncs.Inc()
	d.unsynced = false
	return nil
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
	if err := d.barrierLocked(); err != nil {
		d.werr = err
		return err
	}
	return nil
}

// Close flushes and seals the active segment.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var first error
	if d.werr == nil {
		first = d.barrierLocked()
	}
	if err := d.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// compactLocked merges the sealed segments into one snapshot segment once
// there are compactMinSegments of them. Its callers have just opened an
// empty active segment, so the memtable holds exactly what the sealed
// segments replay to. A failure aborts, is counted and keeps the old
// segments; it never latches werr — compaction is an optimization, never
// a durability hazard.
func (d *Disk) compactLocked() {
	if len(d.sealed) < compactMinSegments {
		return
	}
	// The merged segment takes the oldest sealed sequence number, so it
	// replays before every surviving record.
	if err := d.writeMergedSegment(d.sealed[0].path); err != nil {
		d.m.compactFail.Inc()
		return
	}
	d.syncDir()
	// Delete oldest-first and stop at the first failure: any crash prefix
	// of the deletions leaves only records newer than everything deleted,
	// so replaying [merged, survivors..., active] still converges.
	rest := d.sealed[1:]
	for len(rest) > 0 && os.Remove(rest[0].path) == nil {
		rest = rest[1:]
	}
	d.syncDir()
	d.sealed = append(d.sealed[:1], rest...)
	d.m.compactions.Inc()
	d.m.segments.Set(float64(len(d.sealed) + 1))
}

// writeMergedSegment writes every memtable entry as one fully synced
// segment file next to path, then atomically renames it over path. On
// failure the temporary file is removed and path is untouched.
func (d *Disk) writeMergedSegment(path string) error {
	tmp := path + ".tmp"
	osf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	f := d.wrap(osf)
	err = writeEntries(f, d.items)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// writeEntries writes every entry of items to f as a put record, then
// flushes and fsyncs f.
func writeEntries(f segmentFile, items map[uint64][]Entry) error {
	bw := bufio.NewWriterSize(f, 256<<10)
	var payload, rec []byte
	for _, list := range items {
		for _, e := range list {
			payload = appendEntry(payload[:0], e)
			rec = appendRecord(rec[:0], recPut, payload)
			if _, err := bw.Write(rec); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs the data directory so renames and deletes are themselves
// durable; best effort, as not every filesystem supports it.
func (d *Disk) syncDir() {
	f, err := os.Open(d.dir)
	if err != nil {
		return
	}
	// Best effort by design: not every filesystem supports a directory
	// fsync, and the data-file barriers already ran. Closing the read-only
	// handle persists nothing.
	_ = f.Sync()
	_ = f.Close()
}
