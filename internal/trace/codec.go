package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace file format: a small header followed by one varint-encoded record
// per event. The branch ID is delta-encoded against the previous event's
// (zig-zag), the outcome is folded into the gap's low bit, so hot traces
// compress to a few bytes per event.
//
//	magic   [4]byte  "RSPT"
//	version uvarint  (1)
//	events  uvarint  (total records)
//	records:
//	  deltaID zigzag-varint
//	  gapTaken uvarint   (gap<<1 | taken)

var traceMagic = [4]byte{'R', 'S', 'P', 'T'}

const traceVersion = 1

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// appendHeader appends the header of a trace of events records to dst.
func appendHeader(dst []byte, events uint64) []byte {
	dst = append(dst, traceMagic[:]...)
	dst = binary.AppendUvarint(dst, traceVersion)
	return binary.AppendUvarint(dst, events)
}

// appendRecord appends ev's record to dst: the branch as a zig-zag delta
// from prev, the previous event's branch, then gap<<1 | taken.
func appendRecord(dst []byte, ev Event, prev BranchID) []byte {
	gapTaken := uint64(ev.Gap) << 1
	if ev.Taken {
		gapTaken |= 1
	}
	return binary.AppendUvarint(binary.AppendVarint(dst, int64(ev.Branch)-int64(prev)), gapTaken)
}

// Writer serializes an event stream.
type Writer struct {
	w    *bufio.Writer
	buf  [2 * binary.MaxVarintLen64]byte
	prev BranchID
}

// NewWriter writes a trace header for a stream of totalEvents events and
// returns the writer. The caller must Write exactly totalEvents events and
// then Flush.
func NewWriter(w io.Writer, totalEvents uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(appendHeader(nil, totalEvents)); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one event.
func (t *Writer) Write(ev Event) error {
	rec := appendRecord(t.buf[:0], ev, t.prev)
	t.prev = ev.Branch
	_, err := t.w.Write(rec)
	return err
}

// Flush completes the trace.
func (t *Writer) Flush() error { return t.w.Flush() }

// Capture drains a stream into w in trace format and returns the number of
// events written. totalEvents must match the stream's length exactly; use
// CaptureAll when it is unknown.
func Capture(w io.Writer, s Stream, totalEvents uint64) (uint64, error) {
	tw, err := NewWriter(w, totalEvents)
	if err != nil {
		return 0, err
	}
	var n uint64
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if err := tw.Write(ev); err != nil {
			return n, err
		}
		n++
	}
	if n != totalEvents {
		return n, fmt.Errorf("trace: captured %d events, header says %d", n, totalEvents)
	}
	return n, tw.Flush()
}

// Reader replays a serialized trace as a Stream. Decode errors carry the
// byte offset and event index at which corruption was detected, so a
// truncated or bit-flipped file yields a diagnostic instead of garbage.
type Reader struct {
	r       *bufio.Reader
	off     int64 // bytes consumed from the start of the trace
	total   uint64
	left    uint64
	decoded uint64
	prevID  int64
	err     error
}

// errVarintOverflow reports a varint exceeding 64 bits (only a corrupt or
// adversarial file can contain one; the writer never produces it).
var errVarintOverflow = errors.New("varint overflows 64 bits")

// NewReader validates the header and returns a stream over the trace.
func NewReader(r io.Reader) (*Reader, error) {
	t := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	var magic [4]byte
	if _, err := io.ReadFull(t.r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v (file shorter than the %d-byte magic)",
			ErrBadTrace, err, len(magic))
	}
	t.off = int64(len(magic))
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q at byte offset 0 (want %q)",
			ErrBadTrace, magic[:], traceMagic[:])
	}
	version, err := t.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: reading version at byte offset %d: %v", ErrBadTrace, t.off, err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadTrace, version, traceVersion)
	}
	events, err := t.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: reading event count at byte offset %d: %v", ErrBadTrace, t.off, err)
	}
	t.total, t.left = events, events
	return t, nil
}

// Events returns the number of events remaining.
func (t *Reader) Events() uint64 { return t.left }

// Offset returns the number of trace bytes consumed so far.
func (t *Reader) Offset() int64 { return t.off }

// Err returns the first decode error encountered, if any (Next ends the
// stream on error; callers that care should check Err afterwards).
func (t *Reader) Err() error { return t.err }

// uvarint decodes one unsigned varint, accounting consumed bytes and
// detecting truncation and overflow.
func (t *Reader) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := t.r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		t.off++
		if i == binary.MaxVarintLen64 || (i == binary.MaxVarintLen64-1 && b > 1) {
			return 0, errVarintOverflow
		}
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// varint decodes one zig-zag signed varint.
func (t *Reader) varint() (int64, error) {
	ux, err := t.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// fail records the first decode error, naming where decoding stopped.
func (t *Reader) fail(field string, err error) {
	kind := "corrupt"
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		kind = "truncated"
	}
	t.err = fmt.Errorf("%w: %s %s at byte offset %d (event %d of %d): %v",
		ErrBadTrace, kind, field, t.off, t.decoded, t.total, err)
}

// Next implements Stream.
func (t *Reader) Next() (Event, bool) {
	if t.left == 0 || t.err != nil {
		return Event{}, false
	}
	delta, err := t.varint()
	if err != nil {
		t.fail("branch delta", err)
		return Event{}, false
	}
	gapTaken, err := t.uvarint()
	if err != nil {
		t.fail("gap/outcome", err)
		return Event{}, false
	}
	t.prevID += delta
	if t.prevID < 0 || t.prevID > int64(^uint32(0)) {
		t.err = fmt.Errorf("%w: branch id %d out of range at byte offset %d (event %d of %d)",
			ErrBadTrace, t.prevID, t.off, t.decoded, t.total)
		return Event{}, false
	}
	if gapTaken>>1 > uint64(^uint32(0)) {
		t.err = fmt.Errorf("%w: gap %d out of range at byte offset %d (event %d of %d)",
			ErrBadTrace, gapTaken>>1, t.off, t.decoded, t.total)
		return Event{}, false
	}
	t.left--
	t.decoded++
	return Event{
		Branch: BranchID(t.prevID),
		Taken:  gapTaken&1 == 1,
		Gap:    uint32(gapTaken >> 1),
	}, true
}
