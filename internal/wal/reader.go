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

	"reactivespec/internal/trace"
)

// Record is one replayable WAL entry: the event batch one ingest appended
// for one program, with its derived sequence number.
type Record struct {
	Seq     uint64
	Program string
	// Events is the decoded event batch; nil when ReaderOptions.FrameOnly
	// skipped decoding. Reused by the following Next call.
	Events []trace.Event
	// Frame is the raw trace frame payload exactly as stored (CRC-verified
	// but not decoded when FrameOnly). It aliases an internal buffer and is
	// only valid until the following Next call.
	Frame []byte
}

// ReaderOptions configures a replay pass over a WAL directory.
type ReaderOptions struct {
	// Dir is the segment directory.
	Dir string
	// ParamsHash must match every segment header; replaying records written
	// under different controller parameters would produce different
	// decisions, so a mismatch is a hard error.
	ParamsHash uint64
	// From is the first sequence number to yield. Records below it are
	// skipped (the reader seeks to the covering segment, and skipped records
	// are CRC-checked but never decoded, so skipping is cheap). Zero replays
	// everything retained.
	From uint64
	// Follow makes the reader tolerate a live log growing underneath it:
	// instead of treating the in-progress tail as torn, Next returns a
	// non-sticky io.EOF and a later call resumes — picking up records
	// appended meanwhile, rotated-in segments, and compaction of segments
	// already consumed. The caller decides when the data is trustworthy
	// (pair it with Log.DurableSeq/SubscribeDurable to stay below the
	// fsynced boundary). Truncation is never reported in follow mode.
	Follow bool
	// FrameOnly skips event decoding: Record.Events stays nil and only
	// Record.Frame is populated. Integrity is still CRC-checked. The WAL
	// shipper uses this to forward records without paying a decode it does
	// not need.
	FrameOnly bool
}

// Reader replays WAL records in sequence order. It reads the directory
// as-is — it does not require an open Log, so the same code path serves
// daemon recovery, offline time-travel tooling, and (in follow mode) live
// replication. A torn tail on the *final* segment ends the replay cleanly and
// is reported via Truncation; corruption anywhere else is fatal, because
// rotation fsyncs completed segments and a hole mid-log means records are
// missing, not merely unfinished.
//
// Without Follow, the reader is a point-in-time pass: the segment list is
// snapshotted once at NewReader, so pointing it at a live daemon's directory
// is safe — records appended after the snapshot are simply not part of the
// pass, and a record mid-write when the pass reaches the tail reads as a
// clean truncation of the final segment. The one hazard on a live directory
// is compaction deleting a listed-but-unread segment mid-pass, which fails
// with an error naming the remedy (retry, or start past the retention
// horizon).
type Reader struct {
	opts     ReaderOptions
	segments []segmentRef
	segIdx   int
	f        *os.File
	dec      *segmentDecoder
	nextSeq  uint64 // seq the next decoded record will carry
	floor    uint64 // first seq not yet yielded: max(opts.From, last yielded + 1)
	events   []trace.Event
	err      error
	trunc    *TailTruncation

	// Follow-mode bookkeeping: retryOff remembers the boundary a decode
	// error was rewound to, so a repeat failure at the same offset on a
	// segment that is provably complete (a successor exists) is diagnosed
	// as corruption instead of retried forever.
	retryOff int64
	retried  bool
}

// NewReader opens a replay pass over dir starting at opts.From. An empty or
// absent directory yields a reader that immediately reports io.EOF.
func NewReader(opts ReaderOptions) (*Reader, error) {
	segments, err := listSegments(opts.Dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			segments = nil
		} else {
			return nil, err
		}
	}
	// Seek: the covering segment is the last one based at or below From.
	// Earlier segments hold only records below From and are never opened.
	start := sort.Search(len(segments), func(i int) bool {
		return segments[i].base > opts.From
	})
	if start > 0 {
		start--
	}
	r := &Reader{opts: opts, segments: segments, segIdx: start, floor: opts.From}
	if len(segments) > 0 && opts.From < segments[0].base {
		return nil, fmt.Errorf("wal: replay from sequence %d is below the oldest retained record %d (compacted away)",
			opts.From, segments[0].base)
	}
	return r, nil
}

// Truncation reports the torn tail that ended the replay, if any.
func (r *Reader) Truncation() *TailTruncation { return r.trunc }

// NextSeq returns the sequence number the next yielded record will carry —
// after io.EOF, the end of the replayable range.
func (r *Reader) NextSeq() uint64 { return r.nextSeq }

// Next returns the next record at or past opts.From. io.EOF signals the end
// of the log (including a truncated final segment — check Truncation). In
// follow mode io.EOF is non-sticky: it means "no complete record right now",
// and a later call resumes where this one stopped. The returned record's
// Events and Frame are reused by the following Next call; copy to retain.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	for {
		if r.dec == nil {
			if err := r.openSegment(); err != nil {
				if r.opts.Follow && err == io.EOF {
					// Past the end of the known list: new segments may have
					// appeared since it was (re)listed.
					if ferr := r.relistBeyond(); ferr != nil {
						r.err = ferr
						return Record{}, ferr
					}
					if r.segIdx >= len(r.segments) {
						return Record{}, io.EOF // nothing yet; retry later
					}
					continue
				}
				if err == errTailPending {
					return Record{}, io.EOF // header still being written
				}
				r.err = err
				r.closeFile()
				return Record{}, err
			}
		}
		// Records below the floor are skipped, so they are not decoded.
		program, frame, events, err := r.dec.next(r.events[:0], !r.opts.FrameOnly && r.nextSeq >= r.floor)
		if err == io.EOF {
			// Clean end of this segment at a record boundary.
			endSeq := r.nextSeq
			if r.opts.Follow && r.segIdx == len(r.segments)-1 {
				advance, ferr := r.refreshTail(endSeq)
				if ferr != nil {
					r.err = ferr
					r.closeFile()
					return Record{}, ferr
				}
				if !advance {
					// Still the live tail (or the active segment grew in
					// place); the decoder stays at the boundary and the next
					// call re-reads from there.
					if r.segIdx < len(r.segments)-1 {
						continue // grew in place: data is on disk, decode now
					}
					return Record{}, io.EOF
				}
				// A successor based exactly at endSeq exists: fall through
				// to the normal advance below.
			}
			r.closeFile()
			r.segIdx++
			if r.segIdx >= len(r.segments) {
				if r.opts.Follow {
					continue // loops into the relistBeyond path above
				}
				r.err = io.EOF
				return Record{}, io.EOF
			}
			// Completed segments are fsynced before the next is created,
			// so consecutive bases must meet exactly; a gap means records
			// were lost mid-log and replay cannot be trusted.
			if next := r.segments[r.segIdx].base; next != endSeq {
				r.err = fmt.Errorf("%w: %s begins at sequence %d but the previous segment ends at %d",
					ErrBadSegment, filepath.Base(r.segments[r.segIdx].path), next, endSeq)
				return Record{}, r.err
			}
			continue
		}
		if err != nil {
			if r.opts.Follow && r.segIdx == len(r.segments)-1 {
				if rerr := r.retryTail(err); rerr != nil {
					r.err = rerr
					r.closeFile()
					return Record{}, rerr
				}
				return Record{}, io.EOF // partial tail; retry later
			}
			if r.segIdx == len(r.segments)-1 {
				// Torn tail on the final segment: everything before it
				// replayed fine; stop cleanly and report the cut.
				r.trunc = &TailTruncation{
					Segment: filepath.Base(r.segments[r.segIdx].path),
					Offset:  r.dec.off,
					Dropped: r.dec.size - r.dec.off,
					Reason:  err.Error(),
				}
				r.closeFile()
				r.err = io.EOF
				return Record{}, io.EOF
			}
			r.err = fmt.Errorf("%w: %s at byte offset %d: %v",
				ErrBadSegment, filepath.Base(r.segments[r.segIdx].path), r.dec.off, err)
			r.closeFile()
			return Record{}, r.err
		}
		r.retried = false
		seq := r.nextSeq
		r.nextSeq++
		r.events = events
		if seq < r.floor {
			continue
		}
		r.floor = seq + 1
		return Record{Seq: seq, Program: program, Events: events, Frame: frame}, nil
	}
}

// refreshTail re-lists the directory after a clean boundary EOF on the last
// known segment (follow mode). endSeq is the next expected sequence. It
// re-anchors the reader in the fresh list and reports whether a successor
// segment based exactly at endSeq exists (advance=true → the caller should
// move to it). advance=false with segIdx < last means the active segment
// grew in place; advance=false at the last index means nothing new yet.
func (r *Reader) refreshTail(endSeq uint64) (advance bool, err error) {
	segs, err := listSegments(r.opts.Dir)
	if err != nil {
		return false, err
	}
	if len(segs) == 0 {
		return false, fmt.Errorf("%w: segment directory emptied under a follow reader", ErrBadSegment)
	}
	curBase := r.segments[r.segIdx].base
	// The segment covering endSeq is the last one based at or below it.
	idx := sort.Search(len(segs), func(i int) bool { return segs[i].base > endSeq })
	if idx == 0 {
		return false, fmt.Errorf("wal: follow reader at sequence %d fell behind compaction (oldest retained segment now begins at %d); a full resync is required",
			endSeq, segs[0].base)
	}
	idx--
	switch cover := segs[idx]; {
	case cover.base == curBase:
		// Same segment still covers our position; successors (if any) are
		// based above endSeq, which means the active segment has more
		// records for us first.
		r.segments = segs
		r.segIdx = idx
		return false, nil
	case cover.base == endSeq:
		// Rotation happened exactly at our boundary: our segment is
		// complete and the successor picks up at endSeq. Position just
		// before it (possibly index -1 if our segment was compacted away
		// meanwhile — it is fully consumed, and the caller's advance
		// increments before touching the list) so the normal advance and
		// its continuity check land on the successor.
		r.segments = segs
		r.segIdx = idx - 1
		return true, nil
	default:
		return false, fmt.Errorf("%w: segment layout changed under a follow reader at sequence %d (covering segment now %s)",
			ErrBadSegment, endSeq, filepath.Base(cover.path))
	}
}

// retryTail handles a decode error at the tail of the last known segment in
// follow mode: normally the record is simply still being written, so the
// reader rewinds to the last valid boundary and reports "nothing yet". A
// repeat failure at the same boundary after the segment has provably
// completed (a successor exists in a fresh listing) is real corruption.
func (r *Reader) retryTail(derr error) error {
	boundary := r.dec.off
	if r.retried && r.retryOff == boundary {
		segs, lerr := listSegments(r.opts.Dir)
		if lerr != nil {
			return lerr
		}
		if len(segs) > 0 && segs[len(segs)-1].base > r.segments[r.segIdx].base {
			return fmt.Errorf("%w: %s at byte offset %d: %v (segment is complete; this is corruption, not an in-progress tail)",
				ErrBadSegment, filepath.Base(r.segments[r.segIdx].path), boundary, derr)
		}
	}
	r.retried = true
	r.retryOff = boundary
	// Rewind: reposition the file at the boundary and restart the decoder
	// there, discarding the partial bytes it consumed.
	if _, err := r.f.Seek(boundary, io.SeekStart); err != nil {
		return fmt.Errorf("wal: rewinding follow reader: %w", err)
	}
	st, err := r.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat during follow rewind: %w", err)
	}
	r.dec = newSegmentDecoderAt(r.f, st.Size(), boundary)
	return nil
}

// relistBeyond re-lists the directory when the reader has consumed every
// known segment (follow mode) and re-seeks to the segment covering the next
// wanted sequence, exactly like NewReader's initial positioning.
func (r *Reader) relistBeyond() error {
	segs, err := listSegments(r.opts.Dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // directory not created yet; retry later
		}
		return err
	}
	want := r.nextSeq
	if r.floor > want {
		want = r.floor
	}
	idx := sort.Search(len(segs), func(i int) bool { return segs[i].base > want })
	if idx > 0 {
		idx--
	}
	if len(segs) > 0 && want < segs[0].base {
		return fmt.Errorf("wal: replay from sequence %d is below the oldest retained record %d (compacted away)",
			want, segs[0].base)
	}
	r.segments = segs
	r.segIdx = idx
	return nil
}

// errTailPending marks a final segment whose header is still being written
// (follow mode): not yet readable, not torn either.
var errTailPending = errors.New("wal: tail segment header still being written")

// openSegment opens segments[segIdx], validates its header, and positions
// nextSeq at its base.
func (r *Reader) openSegment() error {
	if r.segIdx >= len(r.segments) {
		return io.EOF
	}
	seg := r.segments[r.segIdx]
	f, err := os.Open(seg.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// The segment was listed but compaction removed it before this
			// reader got there. In follow mode that means the reader fell
			// behind the retention horizon; in a one-shot replay it means the
			// log is live and the point-in-time pass lost part of its window.
			if r.opts.Follow {
				return fmt.Errorf("wal: follow reader fell behind compaction (%s, sequence %d, was removed); a full resync is required",
					filepath.Base(seg.path), seg.base)
			}
			return fmt.Errorf("wal: segment %s (sequence %d) was compacted away mid-replay; "+
				"the log is live — retry, or replay from a later sequence", filepath.Base(seg.path), seg.base)
		}
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat %s: %w", seg.path, err)
	}
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		if r.segIdx == len(r.segments)-1 {
			if r.opts.Follow {
				// The writer is mid-way through creating this segment;
				// its header will be complete shortly.
				return errTailPending
			}
			// A final segment whose header never hit the disk holds no
			// records; the replayable range simply ends before it.
			r.trunc = &TailTruncation{
				Segment: filepath.Base(seg.path),
				Offset:  0,
				Dropped: st.Size(),
				Reason:  "truncated header",
			}
			return io.EOF
		}
		return fmt.Errorf("%w: %s: truncated header: %v", ErrBadSegment, filepath.Base(seg.path), err)
	}
	if _, err := parseSegmentHeader(hdr, filepath.Base(seg.path), r.opts.ParamsHash, seg.base); err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.dec = newSegmentDecoder(f, st.Size())
	r.nextSeq = seg.base
	r.retried = false
	return nil
}

func (r *Reader) closeFile() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	r.dec = nil
}

// Close releases the reader's open segment, if any.
func (r *Reader) Close() error {
	r.closeFile()
	if r.err == nil {
		r.err = ErrClosed
	}
	return nil
}

// segmentDecoder walks one segment's records after the header, tracking the
// byte offset of the last record boundary for truncation diagnostics.
type segmentDecoder struct {
	br      byteReader
	off     int64 // offset of the last valid record boundary
	size    int64
	payload []byte
}

// byteReader adapts an io.Reader for binary.ReadUvarint while counting
// consumed bytes. It reads one byte at a time; callers wrap the file in
// buffering via the payload reads being io.ReadFull over the same reader —
// so wrap the file once here instead.
type byteReader struct {
	r   io.Reader
	buf []byte
	pos int
	n   int
	off int64 // total bytes consumed from r
}

func (b *byteReader) ReadByte() (byte, error) {
	if b.pos >= b.n {
		if err := b.fill(); err != nil {
			return 0, err
		}
	}
	c := b.buf[b.pos]
	b.pos++
	return c, nil
}

func (b *byteReader) fill() error {
	n, err := b.r.Read(b.buf)
	if n == 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	b.pos, b.n = 0, n
	b.off += int64(n)
	return nil
}

// Read drains the look-ahead buffer first, then the underlying reader.
func (b *byteReader) Read(p []byte) (int, error) {
	if b.pos < b.n {
		n := copy(p, b.buf[b.pos:b.n])
		b.pos += n
		return n, nil
	}
	n, err := b.r.Read(p)
	b.off += int64(n)
	return n, err
}

// consumed is how many bytes have been handed out (buffered bytes not yet
// read back are excluded).
func (b *byteReader) consumed() int64 {
	return b.off - int64(b.n-b.pos)
}

// newSegmentDecoder positions a decoder just past the segment header of r;
// size is the full segment file size (for truncation diagnostics).
func newSegmentDecoder(r io.Reader, size int64) *segmentDecoder {
	return newSegmentDecoderAt(r, size, segHeaderSize)
}

// newSegmentDecoderAt positions a decoder at an arbitrary record boundary —
// the follow reader's rewind point after a partial tail read.
func newSegmentDecoderAt(r io.Reader, size, off int64) *segmentDecoder {
	d := &segmentDecoder{size: size, off: off}
	d.br = byteReader{r: r, buf: make([]byte, 1<<16), off: off}
	return d
}

// next decodes one record, appending its events to dst when decode is true
// (the returned frame is the raw trace frame payload either way, CRC-checked
// but aliasing the decoder's buffer). io.EOF means the segment ended cleanly
// at a record boundary; any other error describes why the bytes at offset
// d.off could not be a record.
func (d *segmentDecoder) next(dst []trace.Event, decode bool) (string, []byte, []trace.Event, error) {
	length, err := binary.ReadUvarint(&d.br)
	if err != nil {
		if err == io.EOF && d.br.consumed() == d.off {
			return "", nil, nil, io.EOF
		}
		return "", nil, nil, fmt.Errorf("truncated record length prefix: %v", err)
	}
	if length > maxRecordPayload {
		return "", nil, nil, fmt.Errorf("record length %d exceeds the %d-byte cap", length, maxRecordPayload)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(&d.br, crcBuf[:]); err != nil {
		return "", nil, nil, fmt.Errorf("truncated record checksum: %v", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	if uint64(cap(d.payload)) < length {
		d.payload = make([]byte, length)
	}
	payload := d.payload[:length]
	if _, err := io.ReadFull(&d.br, payload); err != nil {
		return "", nil, nil, fmt.Errorf("truncated record payload (%d bytes declared): %v", length, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return "", nil, nil, fmt.Errorf("record checksum mismatch: computed %08x, stored %08x", got, wantCRC)
	}
	// payload: programLen, program, frame payload.
	progLen, n := binary.Uvarint(payload)
	if n <= 0 || progLen > maxProgramLen || uint64(n)+progLen > uint64(len(payload)) {
		return "", nil, nil, fmt.Errorf("record program field is malformed (declared length %d)", progLen)
	}
	program := string(payload[n : uint64(n)+progLen])
	frame := payload[uint64(n)+progLen:]
	var events []trace.Event
	if decode {
		events, err = trace.DecodeFrameAppend(frame, dst)
		if err != nil {
			return "", nil, nil, fmt.Errorf("record frame payload: %v", err)
		}
	}
	d.off = d.br.consumed()
	return program, frame, events, nil
}

// scanSegmentFile walks every record of the segment at path and returns how
// many valid records it holds, the byte offset of the last valid record
// boundary, and — when the segment does not end cleanly — why the bytes past
// that offset were rejected. The header must already have been validated.
func scanSegmentFile(path string) (records uint64, end int64, reason string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, "", fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, "", fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if _, err := f.Seek(segHeaderSize, io.SeekStart); err != nil {
		return 0, 0, "", fmt.Errorf("wal: seeking past header: %w", err)
	}
	d := newSegmentDecoder(f, st.Size())
	var dst []trace.Event
	for {
		_, _, events, derr := d.next(dst[:0], true)
		if derr == io.EOF {
			return records, d.off, "", nil
		}
		if derr != nil {
			return records, d.off, derr.Error(), nil
		}
		dst = events
		records++
	}
}
