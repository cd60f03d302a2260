package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
	// Live, when non-nil, is the open Log that owns Dir and makes this a live
	// reader: it yields only records below Live.DurableSeq(). At that bound
	// Next returns io.EOF, and the EOF is not sticky — a later call resumes
	// once the bound has advanced (Live.SubscribeDurable signals when). Every
	// record below the bound is complete on disk, so there it must decode: a
	// gap, a missing segment or a checksum failure is a permanent error, and
	// Truncation is never reported.
	Live *Log
	// FrameOnly skips event decoding: Record.Events stays nil and only
	// Record.Frame is populated. Integrity is still CRC-checked. The WAL
	// shipper uses this to forward records without paying a decode it does
	// not need.
	FrameOnly bool
}

// resyncRemedy is how a live reader's permanent errors end: the records it
// needs are gone from the log, so its consumer must start over.
const resyncRemedy = "a full resync (fresh snapshot, empty wal directory) is required"

// Reader replays WAL records in sequence order. It reads the directory
// as-is, so the same code path serves daemon recovery, offline time-travel
// tooling, and (with ReaderOptions.Live) live replication.
//
// Without Live, the reader is a point-in-time pass: the segment list is
// snapshotted once at NewReader, so pointing it at a live daemon's directory
// is safe — records appended after the snapshot are simply not part of the
// pass. The reader owns the log's one tail rule, and Open repairs what it
// reports: on the *final* segment, a header that never finished writing or
// a record that fails its length prefix (a zero length included, which only
// a zero-filled tail produces) or checksum is a torn tail, which
// ends the pass cleanly and is reported via Truncation. Such damage anywhere
// else is fatal, because rotation fsyncs completed segments and a hole
// mid-log means records are missing, not merely unfinished. A record whose
// checksum holds but whose program field or frame does not parse was never
// a partial write, so it fails with ErrBadSegment in every segment (a
// FrameOnly reader does not parse frames, so it cannot see a bad one). The
// one hazard on a live directory is compaction deleting a listed-but-unread
// segment mid-pass, which fails with an error naming the remedy (retry, or
// start past the retention horizon).
//
// A live reader never meets an unfinished record: it stops at the durable
// bound, and re-lists the directory only when a durable record lies past the
// last listed segment — the segment holding it must then begin exactly at
// that record.
type Reader struct {
	opts     ReaderOptions
	segments []segmentRef
	segIdx   int // the open segment, or the next one to open
	f        *os.File
	dec      *segmentDecoder
	nextSeq  uint64 // seq the next decoded record will carry
	floor    uint64 // first seq not yet yielded: max(opts.From, last yielded + 1)
	events   []trace.Event
	err      error
	trunc    *TailTruncation
}

// NewReader opens a replay pass over dir starting at opts.From. An empty or
// absent directory yields a reader that immediately reports io.EOF.
func NewReader(opts ReaderOptions) (*Reader, error) {
	r := &Reader{opts: opts, nextSeq: opts.From, floor: opts.From}
	if err := r.seek(); err != nil {
		return nil, err
	}
	return r, nil
}

// seek lists the directory and positions the reader at the segment covering
// nextSeq: the last one based at or below it. Earlier segments hold only
// records below nextSeq and are never opened. Before any segment has been
// listed, nextSeq moves back to the covering segment's base (the floor skips
// the records below From); afterwards openSegment requires that segment to
// begin exactly at nextSeq.
func (r *Reader) seek() error {
	segs, err := listSegments(r.opts.Dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if len(segs) > 0 && r.nextSeq < segs[0].base {
		if r.opts.Live != nil {
			return fmt.Errorf("wal: live reader at sequence %d fell behind compaction (the oldest retained record is %d); %s",
				r.nextSeq, segs[0].base, resyncRemedy)
		}
		return fmt.Errorf("wal: replay from sequence %d is below the oldest retained record %d (compacted away)",
			r.nextSeq, segs[0].base)
	}
	idx := sort.Search(len(segs), func(i int) bool { return segs[i].base > r.nextSeq })
	if idx > 0 {
		idx--
		if len(r.segments) == 0 {
			r.nextSeq = segs[idx].base
		}
	}
	r.segments, r.segIdx = segs, idx
	return nil
}

// Truncation reports the torn tail that ended the replay, if any.
func (r *Reader) Truncation() *TailTruncation { return r.trunc }

// NextSeq returns the sequence number the next yielded record will carry —
// after io.EOF, the end of the replayable range.
func (r *Reader) NextSeq() uint64 { return r.nextSeq }

// Next returns the next record at or past opts.From. io.EOF signals the end
// of the log (including a truncated final segment — check Truncation); for a
// live reader it means the next record is not durable yet, and a later call
// resumes where this one stopped. The returned record's Events and Frame are
// reused by the following Next call; copy to retain.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	bound := uint64(math.MaxUint64)
	if r.opts.Live != nil {
		bound = r.opts.Live.DurableSeq()
	}
	for {
		if r.nextSeq >= bound {
			return Record{}, io.EOF
		}
		if r.dec == nil {
			if err := r.openSegment(bound); err != nil {
				return Record{}, r.fail(err)
			}
		}
		// Records below the floor are skipped, so they are not decoded.
		program, frame, events, err := r.dec.next(r.events[:0], !r.opts.FrameOnly && r.nextSeq >= r.floor)
		if err == io.EOF {
			// Clean end of this segment at a record boundary; the next one
			// must begin at nextSeq (openSegment checks).
			r.closeFile()
			r.segIdx++
			continue
		}
		if err != nil {
			if _, corrupt := err.(corruptRecord); !corrupt && r.opts.Live == nil && r.segIdx == len(r.segments)-1 {
				// A length prefix or checksum that fails on the final
				// segment is a torn tail: everything before it replayed
				// fine; stop cleanly and report the cut.
				r.trunc = &TailTruncation{
					Segment: filepath.Base(r.segments[r.segIdx].path),
					Offset:  r.dec.off,
					Dropped: r.dec.size - r.dec.off,
					Reason:  err.Error(),
				}
				return Record{}, r.fail(io.EOF)
			}
			return Record{}, r.fail(fmt.Errorf("%w: %s at byte offset %d: %v",
				ErrBadSegment, filepath.Base(r.segments[r.segIdx].path), r.dec.off, err))
		}
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

// fail ends the pass: err is returned by every later Next.
func (r *Reader) fail(err error) error {
	r.err = err
	r.closeFile()
	return err
}

// openSegment opens segments[segIdx], which must begin at nextSeq, and
// validates its header. A point-in-time pass returns io.EOF past the last
// listed segment; a live reader (called only below its bound) re-lists.
func (r *Reader) openSegment(bound uint64) error {
	if r.segIdx >= len(r.segments) {
		if r.opts.Live == nil {
			return io.EOF
		}
		// Durable record nextSeq lies past the last listed segment.
		if err := r.seek(); err != nil {
			return err
		}
	}
	if r.segIdx >= len(r.segments) || r.segments[r.segIdx].base != r.nextSeq {
		if r.opts.Live != nil {
			return r.missing(bound)
		}
		// Completed segments are fsynced before the next is created, so
		// consecutive bases must meet exactly; a gap means records were
		// lost mid-log and replay cannot be trusted.
		seg := r.segments[r.segIdx]
		return fmt.Errorf("%w: %s begins at sequence %d but the previous segment ends at %d",
			ErrBadSegment, filepath.Base(seg.path), seg.base, r.nextSeq)
	}
	seg := r.segments[r.segIdx]
	f, err := os.Open(seg.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// The segment was listed but compaction removed it before this
			// reader got there.
			if r.opts.Live != nil {
				return fmt.Errorf("wal: live reader fell behind compaction (%s, sequence %d, was removed); %s",
					filepath.Base(seg.path), seg.base, resyncRemedy)
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
		if r.opts.Live == nil && r.segIdx == len(r.segments)-1 {
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
	if err := parseSegmentHeader(hdr, filepath.Base(seg.path), r.opts.ParamsHash, seg.base); err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.dec = newSegmentDecoder(f, st.Size())
	return nil
}

// missing is a live reader's gap: durable record nextSeq is in no segment.
// The missing range runs to the next listed segment, or to the bound.
func (r *Reader) missing(bound uint64) error {
	hi := bound
	next := sort.Search(len(r.segments), func(i int) bool { return r.segments[i].base > r.nextSeq })
	if next < len(r.segments) {
		hi = r.segments[next].base
	}
	return fmt.Errorf("wal: records [%d, %d) are not in the log (no segment holds them); %s", r.nextSeq, hi, resyncRemedy)
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
	br      *bufio.Reader
	pos     int64 // offset of the next unread byte
	off     int64 // offset of the last valid record boundary
	size    int64
	payload []byte
}

// newSegmentDecoder positions a decoder just past the segment header of r;
// size is the full segment file size (for truncation diagnostics).
func newSegmentDecoder(r io.Reader, size int64) *segmentDecoder {
	return &segmentDecoder{
		br:   bufio.NewReaderSize(r, 1<<16),
		pos:  segHeaderSize,
		off:  segHeaderSize,
		size: size,
	}
}

// ReadByte reads the length prefix for binary.ReadUvarint, counting it.
func (d *segmentDecoder) ReadByte() (byte, error) {
	c, err := d.br.ReadByte()
	if err == nil {
		d.pos++
	}
	return c, err
}

// readFull fills p from the segment, counting the bytes it consumes.
func (d *segmentDecoder) readFull(p []byte) error {
	n, err := io.ReadFull(d.br, p)
	d.pos += int64(n)
	return err
}

// corruptRecord is a record that passed its length and checksum checks but
// does not parse. Unlike a torn record it cannot be an unfinished write, so
// it is corruption wherever it appears.
type corruptRecord string

func (e corruptRecord) Error() string { return string(e) }

// next decodes one record, appending its events to dst when decode is true
// (the returned frame is the raw trace frame payload either way, CRC-checked
// but aliasing the decoder's buffer). io.EOF means the segment ended cleanly
// at a record boundary; any other error describes why the bytes at offset
// d.off could not be a record, and is a corruptRecord when the length prefix
// and checksum held.
func (d *segmentDecoder) next(dst []trace.Event, decode bool) (string, []byte, []trace.Event, error) {
	length, err := binary.ReadUvarint(d)
	if err == io.EOF {
		// ReadUvarint reports a bare EOF only before the first byte.
		return "", nil, nil, io.EOF
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("truncated record length prefix: %v", err)
	}
	if length == 0 {
		// No record is empty (the program length alone takes a byte), but a
		// crash that extends the file before its data lands leaves zeros,
		// which would pass as an empty record with CRC 0: a torn tail.
		return "", nil, nil, errors.New("record length 0 (a zero-filled tail)")
	}
	if length > maxRecordPayload {
		return "", nil, nil, fmt.Errorf("record length %d exceeds the %d-byte cap", length, maxRecordPayload)
	}
	var crcBuf [4]byte
	if err := d.readFull(crcBuf[:]); err != nil {
		return "", nil, nil, fmt.Errorf("truncated record checksum: %v", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	if uint64(cap(d.payload)) < length {
		d.payload = make([]byte, length)
	}
	payload := d.payload[:length]
	if err := d.readFull(payload); err != nil {
		return "", nil, nil, fmt.Errorf("truncated record payload (%d bytes declared): %v", length, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return "", nil, nil, fmt.Errorf("record checksum mismatch: computed %08x, stored %08x", got, wantCRC)
	}
	// payload: programLen, program, frame payload.
	progLen, n := binary.Uvarint(payload)
	if n <= 0 || progLen > maxProgramLen || uint64(n)+progLen > uint64(len(payload)) {
		return "", nil, nil, corruptRecord(fmt.Sprintf("record program field is malformed (declared length %d)", progLen))
	}
	program := string(payload[n : uint64(n)+progLen])
	frame := payload[uint64(n)+progLen:]
	var events []trace.Event
	if decode {
		events, err = trace.DecodeFrameAppend(frame, dst)
		if err != nil {
			return "", nil, nil, corruptRecord(fmt.Sprintf("record frame payload: %v", err))
		}
	}
	d.off = d.pos
	return program, frame, events, nil
}
