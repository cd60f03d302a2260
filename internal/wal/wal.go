// Package wal is the daemon's write-ahead event log: a segmented,
// append-only record of every ingested trace frame, written *before* the
// frame is applied to the controller table. Controllers are deterministic
// functions of their event stream, so the log plus the latest gob snapshot
// gives exact point-in-time recovery — restore the snapshot, replay the log
// tail, resume — without consensus or per-entry journaling.
//
// On-disk layout: <dir>/wal-<base seq, 16 hex digits>.seg files. Each
// segment starts with a fixed header and carries length-prefixed,
// CRC-guarded records:
//
//	segment header (21 bytes):
//	  magic      "RSWL"  [4]byte
//	  version    byte    (1)
//	  paramsHash uint64  LE  — controller-parameter digest (server.ParamsHash)
//	  baseSeq    uint64  LE  — sequence number of the segment's first record
//
//	record:
//	  length  uvarint    (payload bytes)
//	  crc     uint32 LE  (CRC-32/IEEE over the payload)
//	  payload:
//	    programLen uvarint, program bytes
//	    frame      a complete trace frame payload (trace.EncodeFrameAppend)
//
// Records are numbered consecutively from the segment's base, so a record's
// sequence number is derived, never stored: seq = baseSeq + index. Segment
// rotation closes and fsyncs the active file before opening the next, so
// only the *last* segment can ever hold a torn tail; Open scans it, truncates
// at the last valid record boundary, and reports the cut with a byte-offset
// diagnostic — the same contract as the trace codec's corruption detection.
//
// Durability is a policy knob, not a fixed cost: SyncAlways fsyncs on every
// Commit (no acknowledged event is ever lost), SyncInterval fsyncs on a
// background tick (bounded loss window, near-zero ingest overhead),
// SyncNever leaves flushing to the OS (snapshots remain the only durable
// anchor). Whatever survives on disk always replays deterministically; the
// policy only chooses how much tail a crash may shave off.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
)

const (
	segVersion    = 1
	segHeaderSize = 4 + 1 + 8 + 8

	// maxProgramLen bounds the program-name field of a record; anything
	// longer is corruption, not a workload.
	maxProgramLen = 1 << 12
	// maxRecordPayload bounds one record's payload the way
	// trace.MaxFramePayload bounds a wire frame: a corrupted length prefix
	// must be diagnosed, not swallowed as one giant bogus record.
	maxRecordPayload = trace.MaxFramePayload + maxProgramLen + 2*binary.MaxVarintLen64

	// DefaultSegmentBytes is the rotation threshold when the caller does
	// not choose one.
	DefaultSegmentBytes = 64 << 20
	// DefaultSyncInterval is the SyncInterval flush cadence when the
	// caller does not choose one.
	DefaultSyncInterval = 100 * time.Millisecond
)

var segMagic = [4]byte{'R', 'S', 'W', 'L'}

// ErrBadSegment reports a segment whose framing or header is damaged.
var ErrBadSegment = errors.New("wal: malformed segment")

// ErrParamsMismatch reports a segment written under different controller
// parameters; replaying it would produce different decisions.
var ErrParamsMismatch = errors.New("wal: segment controller parameters do not match")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncInterval flushes and fsyncs on a background tick
	// (Options.Interval): a crash loses at most one interval of tail.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs on every Commit: no acknowledged event is lost.
	SyncAlways
	// SyncNever leaves flushing to segment rotation, Close, and the OS.
	SyncNever
)

// String renders the policy the way the -wal-fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses a -wal-fsync flag value: "always", "never",
// "interval", or "interval=<duration>".
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch {
	case s == "always":
		return SyncAlways, 0, nil
	case s == "never":
		return SyncNever, 0, nil
	case s == "interval":
		return SyncInterval, DefaultSyncInterval, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: bad sync interval %q", s)
		}
		return SyncInterval, d, nil
	}
	return 0, 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval[=dur], or never)", s)
}

// Options configures a Log.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// ParamsHash is the controller-parameter digest stamped into every
	// segment header; Open rejects segments written under a different one.
	ParamsHash uint64
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// Policy selects the fsync policy (default SyncInterval).
	Policy SyncPolicy
	// Interval is the SyncInterval flush cadence (default
	// DefaultSyncInterval).
	Interval time.Duration
	// Logf, when non-nil, receives operational log lines (recovery
	// truncation, compaction).
	Logf func(format string, args ...any)
	// Trace, when non-nil, records sampled trace-less infrastructure spans
	// (wal_fsync, wal_rotate) so span files show where the fsync barrier's
	// time goes. Nil disables with a single branch per fsync.
	Trace *obs.Tracer
}

// TailTruncation describes a torn or corrupt tail Open cut off: the segment,
// the byte offset of the last valid record boundary, and why the next record
// was rejected.
type TailTruncation struct {
	Segment string
	// Offset is the byte offset the segment was truncated to — the end of
	// the last valid record.
	Offset int64
	// Dropped is how many bytes past Offset were discarded.
	Dropped int64
	Reason  string
}

func (t *TailTruncation) String() string {
	return fmt.Sprintf("%s truncated to byte offset %d (%d trailing bytes dropped): %s",
		t.Segment, t.Offset, t.Dropped, t.Reason)
}

// segmentRef locates one on-disk segment.
type segmentRef struct {
	base uint64
	path string
}

func segmentName(base uint64) string {
	return fmt.Sprintf("wal-%016x.seg", base)
}

// parseSegmentName extracts the base sequence number from a segment file
// name; ok is false for files that are not segments.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	base, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// Stats is a point-in-time summary of the log, for metrics exposition.
type Stats struct {
	// AppendedRecords and AppendedBytes count appends since Open.
	AppendedRecords uint64
	AppendedBytes   uint64
	// Fsyncs counts file syncs since Open.
	Fsyncs uint64
	// Segments is the number of on-disk segment files.
	Segments int
	// ActiveSegmentBytes is the size of the segment currently appended to
	// (0 when none is open yet).
	ActiveSegmentBytes int64
	// OldestSeq and NextSeq bound the retained record range:
	// [OldestSeq, NextSeq) is replayable.
	OldestSeq uint64
	NextSeq   uint64
	// DurableSeq is the end of the fsynced range: records
	// [OldestSeq, DurableSeq) are on stable storage.
	DurableSeq uint64
}

// Log is the append side of the write-ahead log. AppendPayload and Commit
// are safe for concurrent use; one Log owns its directory.
type Log struct {
	opts Options

	mu         sync.Mutex
	segments   []segmentRef // sorted by base; the last one is active when f != nil
	f          *os.File
	bw         *bufWriter
	nextSeq    uint64
	oldestSeq  uint64
	activeBase uint64
	bytes      int64 // size of the active segment
	dirty      bool  // unsynced data in the buffer or file
	closed     bool
	scratch    []byte
	truncation *TailTruncation

	appendedRecords atomic.Uint64
	appendedBytes   atomic.Uint64
	fsyncs          atomic.Uint64

	// durableSeq is the end of the fsynced range: every record with a
	// sequence number below it is on stable storage. It only advances on a
	// successful fsync (or when the next sequence is repositioned), so a
	// tail reader that stays below it never observes a torn record.
	durableSeq atomic.Uint64

	subMu sync.Mutex
	subs  map[chan struct{}]struct{}

	// OnFsync, when non-nil, observes every fsync's duration (wired to a
	// latency histogram by the server). Set it before the first AppendPayload.
	OnFsync func(time.Duration)

	stop chan struct{}
	done chan struct{}
}

// bufWriter is a minimal buffered writer: bufio.Writer plus a byte count so
// rotation thresholds see buffered bytes too.
type bufWriter struct {
	f   *os.File
	buf []byte
}

func (w *bufWriter) Write(p []byte) error {
	if len(w.buf)+len(p) > cap(w.buf) {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if len(p) > cap(w.buf) {
		_, err := w.f.Write(p)
		return err
	}
	w.buf = append(w.buf, p...)
	return nil
}

func (w *bufWriter) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Open opens (or creates) the log under opts.Dir: it scans the existing
// segments, validates their headers against opts.ParamsHash, truncates a
// torn tail at the last valid record boundary, and positions the log to
// append after the last durable record. The first segment is created lazily
// on the first AppendPayload, so an empty directory stays empty until
// written to.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: no directory configured")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultSyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating directory: %w", err)
	}
	segments, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:     opts,
		segments: segments,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := l.recoverTail(); err != nil {
		return nil, err
	}
	if len(l.segments) > 0 {
		l.oldestSeq = l.segments[0].base
	}
	// Everything recovery kept is on stable storage (rotation fsyncs
	// completed segments, and the torn tail was just cut at the last valid
	// boundary), so the durable range starts out equal to the full range.
	l.durableSeq.Store(l.nextSeq)
	go l.syncLoop()
	return l, nil
}

// listSegments enumerates and orders the directory's segment files.
func listSegments(dir string) ([]segmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading directory: %w", err)
	}
	var segs []segmentRef
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentRef{base: base, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for i := 1; i < len(segs); i++ {
		if segs[i].base == segs[i-1].base {
			return nil, fmt.Errorf("%w: duplicate base sequence %d", ErrBadSegment, segs[i].base)
		}
	}
	return segs, nil
}

// recoverTail validates the last segment and opens it for append. A final
// segment whose header never made it to disk (crash during rotation) is
// deleted; a torn record tail is truncated at the last valid boundary. The
// headers of earlier segments are validated too (cheap), but their records
// are only decoded at replay — rotation fsyncs every completed segment, so
// only the last can be torn.
func (l *Log) recoverTail() error {
	for i := 0; i < len(l.segments)-1; i++ {
		if _, err := readSegmentHeader(l.segments[i].path, l.opts.ParamsHash, l.segments[i].base); err != nil {
			return err
		}
	}
	for len(l.segments) > 0 {
		last := l.segments[len(l.segments)-1]
		if _, err := readSegmentHeader(last.path, l.opts.ParamsHash, last.base); err != nil {
			// Params and identity mismatches are hard errors everywhere;
			// only a header that never finished writing is recoverable,
			// and only on the final segment.
			if !errors.Is(err, ErrBadSegment) || !errors.Is(err, errTornHeader) {
				return err
			}
			if rmErr := os.Remove(last.path); rmErr != nil {
				return fmt.Errorf("wal: removing torn segment %s: %w", last.path, rmErr)
			}
			l.logf("wal: removed segment %s with torn header (%v)", filepath.Base(last.path), err)
			l.segments = l.segments[:len(l.segments)-1]
			continue
		}
		break
	}
	if len(l.segments) == 0 {
		return nil
	}
	last := l.segments[len(l.segments)-1]
	records, end, reason, err := scanSegmentFile(last.path)
	if err != nil {
		return err
	}
	size, err := fileSize(last.path)
	if err != nil {
		return err
	}
	if end < size {
		if err := os.Truncate(last.path, end); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
		}
		l.truncation = &TailTruncation{
			Segment: filepath.Base(last.path),
			Offset:  end,
			Dropped: size - end,
			Reason:  reason,
		}
		l.logf("wal: %s", l.truncation)
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment for append: %w", err)
	}
	l.f = f
	l.bw = &bufWriter{f: f, buf: make([]byte, 0, 1<<16)}
	l.activeBase = last.base
	l.bytes = end
	l.nextSeq = last.base + records
	return nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	return st.Size(), nil
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// Recovery returns the torn-tail truncation Open performed, if any.
func (l *Log) Recovery() *TailTruncation { return l.truncation }

// NextSeq returns the sequence number the next appended record will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// OldestSeq returns the sequence number of the oldest retained record; the
// replayable range is [OldestSeq, NextSeq).
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldestSeq
}

// DurableSeq returns the end of the fsynced range: every record with a
// sequence number below it is on stable storage and safe to read while the
// log is live. Under SyncNever it only advances on rotation, Sync, and
// Close — a live tail reader (replication) effectively ships segment by
// segment under that policy.
func (l *Log) DurableSeq() uint64 { return l.durableSeq.Load() }

// SubscribeDurable registers for durability advances: the returned channel
// receives a (coalesced) signal whenever DurableSeq grows. Call cancel to
// unregister. The channel is never closed; select against it together with
// the subscriber's own shutdown signal.
func (l *Log) SubscribeDurable() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	l.subMu.Lock()
	if l.subs == nil {
		l.subs = make(map[chan struct{}]struct{})
	}
	l.subs[ch] = struct{}{}
	l.subMu.Unlock()
	cancel := func() {
		l.subMu.Lock()
		delete(l.subs, ch)
		l.subMu.Unlock()
	}
	return ch, cancel
}

// advanceDurable publishes a new durable boundary and nudges subscribers.
// Sends are non-blocking: each subscriber channel has one slot, so a slow
// subscriber coalesces bursts instead of stalling the fsync path.
func (l *Log) advanceDurable(seq uint64) {
	l.durableSeq.Store(seq)
	l.subMu.Lock()
	for ch := range l.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	l.subMu.Unlock()
}

// Dir returns the log's segment directory.
func (l *Log) Dir() string { return l.opts.Dir }

// ParamsHash returns the controller-parameter digest the log was opened
// with.
func (l *Log) ParamsHash() uint64 { return l.opts.ParamsHash }

// Policy returns the log's sync policy.
func (l *Log) Policy() SyncPolicy { return l.opts.Policy }

// AlignSeq positions the log's next sequence number at least at seq. It is
// the recovery hook for a snapshot anchored past the log's durable end — a
// fresh directory next to an existing snapshot, or a SyncNever/SyncInterval
// crash that lost tail records the snapshot had already absorbed. The
// active segment (if any) is finished and the next append starts a new
// segment based at seq, so derived sequence numbers stay consistent and the
// skipped range is visibly absent rather than silently renumbered.
func (l *Log) AlignSeq(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.nextSeq >= seq {
		return nil
	}
	if l.f != nil {
		l.logf("wal: aligning next sequence %d -> %d (snapshot is newer than the durable tail)",
			l.nextSeq, seq)
		if err := l.finishSegmentLocked(); err != nil {
			return err
		}
	}
	if len(l.segments) == 0 {
		l.oldestSeq = seq
	}
	l.nextSeq = seq
	// The skipped range holds no records, so durability catches up for free.
	l.advanceDurable(seq)
	return nil
}

// AppendPayload appends one record — program plus one trace frame payload
// (the bytes trace.EncodeFrameAppend produces) — to the active segment and
// returns the record's sequence number. The frame is stored verbatim, so
// the ingest paths log the bytes exactly as the client sent them. It only
// buffers; call Commit after the batch to apply the sync policy. Rotation
// happens transparently when the active segment exceeds the threshold.
func (l *Log) AppendPayload(program string, framePayload []byte) (uint64, error) {
	if len(program) > maxProgramLen {
		return 0, fmt.Errorf("wal: program name %d bytes exceeds the %d-byte cap", len(program), maxProgramLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.f == nil {
		if err := l.createSegmentLocked(); err != nil {
			return 0, err
		}
	}
	var tmp [binary.MaxVarintLen64]byte
	payload := l.scratch[:0]
	payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(program)))]...)
	payload = append(payload, program...)
	payload = append(payload, framePayload...)
	l.scratch = payload
	return l.appendRecordLocked(payload)
}

func (l *Log) appendRecordLocked(payload []byte) (uint64, error) {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	n += 4
	if err := l.bw.Write(hdr[:n]); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	if err := l.bw.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	written := int64(n + len(payload))
	l.bytes += written
	l.dirty = true
	seq := l.nextSeq
	l.nextSeq++
	l.appendedRecords.Add(1)
	l.appendedBytes.Add(uint64(written))

	if l.bytes >= l.opts.SegmentBytes {
		if err := l.finishSegmentLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Commit makes the records appended so far as durable as the sync policy
// promises: SyncAlways flushes and fsyncs now, SyncInterval leaves them for
// the background tick, SyncNever leaves them to the OS. Call it once per
// ingest batch, after the batch's AppendPayload calls and before applying
// the events.
func (l *Log) Commit() error {
	if l.opts.Policy != SyncAlways {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.flushSyncLocked()
}

// Sync flushes and fsyncs the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.flushSyncLocked()
}

func (l *Log) flushSyncLocked() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flushing segment: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment: %w", err)
	}
	if l.OnFsync != nil {
		l.OnFsync(time.Since(start))
	}
	if l.opts.Trace.SampleInfra() {
		l.opts.Trace.RecordInfra("wal_fsync", start, time.Since(start))
	}
	l.fsyncs.Add(1)
	l.dirty = false
	l.advanceDurable(l.nextSeq)
	return nil
}

// createSegmentLocked starts a new active segment based at nextSeq.
func (l *Log) createSegmentLocked() error {
	path := filepath.Join(l.opts.Dir, segmentName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic[:])
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[5:], l.opts.ParamsHash)
	binary.LittleEndian.PutUint64(hdr[13:], l.nextSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.f = f
	if l.bw == nil {
		l.bw = &bufWriter{f: f, buf: make([]byte, 0, 1<<16)}
	} else {
		l.bw.f = f
		l.bw.buf = l.bw.buf[:0]
	}
	l.activeBase = l.nextSeq
	l.bytes = segHeaderSize
	l.dirty = true
	l.segments = append(l.segments, segmentRef{base: l.nextSeq, path: path})
	if len(l.segments) == 1 {
		l.oldestSeq = l.nextSeq
	}
	return nil
}

// finishSegmentLocked flushes, fsyncs and closes the active segment. Every
// completed segment is durable regardless of sync policy — that is what
// confines torn tails to the final segment.
func (l *Log) finishSegmentLocked() error {
	if l.f == nil {
		return nil
	}
	rotStart := time.Now()
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flushing segment: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment: %w", err)
	}
	if l.OnFsync != nil {
		l.OnFsync(time.Since(start))
	}
	l.fsyncs.Add(1)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	// Rotation is infrequent; a rotate span covers the whole flush + fsync
	// + close of the finished segment.
	if l.opts.Trace.SampleInfra() {
		l.opts.Trace.RecordInfra("wal_rotate", rotStart, time.Since(rotStart))
	}
	l.f = nil
	l.dirty = false
	l.bytes = 0
	l.advanceDurable(l.nextSeq)
	return nil
}

// CompactTo deletes segments every record of which has sequence number below
// seq — the snapshot-anchored compaction: after a snapshot anchored at seq
// is durably on disk, everything before it is dead weight. The active (last)
// segment is never deleted. Returns how many segments were removed.
func (l *Log) CompactTo(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segments) > 1 && l.segments[1].base <= seq {
		victim := l.segments[0]
		if err := os.Remove(victim.path); err != nil {
			return removed, fmt.Errorf("wal: removing compacted segment: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		l.oldestSeq = l.segments[0].base
		l.logf("wal: compacted %d segment(s) below sequence %d", removed, seq)
	}
	return removed, nil
}

// Stats returns a point-in-time summary for metrics exposition.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		AppendedRecords:    l.appendedRecords.Load(),
		AppendedBytes:      l.appendedBytes.Load(),
		Fsyncs:             l.fsyncs.Load(),
		Segments:           len(l.segments),
		ActiveSegmentBytes: l.bytes,
		OldestSeq:          l.oldestSeq,
		NextSeq:            l.nextSeq,
		DurableSeq:         l.durableSeq.Load(),
	}
}

// syncLoop is the SyncInterval background flusher. It runs for every policy
// (cheap when there is nothing dirty) so Close has one channel to drain, but
// only the interval policy relies on it for durability.
func (l *Log) syncLoop() {
	defer close(l.done)
	if l.opts.Policy != SyncInterval {
		<-l.stop
		return
	}
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.flushSyncLocked(); err != nil {
					l.logf("wal: background sync: %v", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs and closes the active segment and stops the
// background flusher. The log cannot be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.finishSegmentLocked()
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	return err
}

// errTornHeader marks a segment header that is shorter than the fixed header
// size: a crash during segment creation, recoverable when it is the final
// segment.
var errTornHeader = errors.New("truncated header")

// readSegmentHeader validates one segment's header against the expected
// params hash and the base sequence its file name declares.
func readSegmentHeader(path string, wantHash, wantBase uint64) (headerInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return headerInfo{}, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return headerInfo{}, fmt.Errorf("%w: %s: %w (%v)", ErrBadSegment, filepath.Base(path), errTornHeader, err)
	}
	return parseSegmentHeader(hdr, filepath.Base(path), wantHash, wantBase)
}

type headerInfo struct {
	paramsHash uint64
	base       uint64
}

// parseSegmentHeader validates header bytes. wantBase is the base the file
// name (or caller) expects; pass ^uint64(0) to skip that check.
func parseSegmentHeader(hdr [segHeaderSize]byte, name string, wantHash, wantBase uint64) (headerInfo, error) {
	if *(*[4]byte)(hdr[:4]) != segMagic {
		return headerInfo{}, fmt.Errorf("%w: %s: bad magic %q at byte offset 0 (want %q)",
			ErrBadSegment, name, hdr[:4], segMagic[:])
	}
	if hdr[4] != segVersion {
		return headerInfo{}, fmt.Errorf("%w: %s: unsupported version %d (want %d)",
			ErrBadSegment, name, hdr[4], segVersion)
	}
	h := headerInfo{
		paramsHash: binary.LittleEndian.Uint64(hdr[5:]),
		base:       binary.LittleEndian.Uint64(hdr[13:]),
	}
	if h.paramsHash != wantHash {
		return headerInfo{}, fmt.Errorf("%w: %s carries params hash %016x, want %016x",
			ErrParamsMismatch, name, h.paramsHash, wantHash)
	}
	if wantBase != ^uint64(0) && h.base != wantBase {
		return headerInfo{}, fmt.Errorf("%w: %s header base sequence %d disagrees with its name",
			ErrBadSegment, name, h.base)
	}
	return h, nil
}
