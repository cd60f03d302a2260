package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Streaming frames wrap the trace codec for transport: each frame is a
// length-prefixed, self-delimiting batch of events, so a long-lived
// connection (or an HTTP request body) can carry many independent batches
// and a corrupt batch can be rejected without abandoning the stream — the
// length prefix tells the reader where the next frame starts regardless of
// what the payload contains.
//
//	frame:
//	  length  uvarint  (payload bytes)
//	  payload          (a complete trace blob: magic, version, count, records)

// MaxFramePayload caps a single frame's payload size. A length prefix above
// the cap is treated as a framing error (the stream cannot be trusted past
// it), since a corrupted length would otherwise make the reader swallow the
// rest of the stream as one giant bogus frame.
const MaxFramePayload = 1 << 26

// ErrBadFrame reports an unrecoverable framing error: the frame boundary
// itself (length prefix or payload byte count) is damaged.
var ErrBadFrame = errors.New("trace: malformed frame")

// FrameError reports a frame whose payload failed to decode. The framing is
// intact — the reader has already consumed the frame's bytes and remains
// positioned at the next frame — so callers may reject the frame and keep
// reading.
type FrameError struct {
	// Index is the zero-based frame position in the stream.
	Index int
	// Err is the payload decode failure (wraps ErrBadTrace).
	Err error
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("trace: frame %d rejected: %v", e.Index, e.Err)
}

func (e *FrameError) Unwrap() error { return e.Err }

// EncodeFrameAppend appends the frame payload for events — a complete trace
// blob, without the length prefix — to dst and returns the extended slice.
// It never allocates beyond growing dst, so hot senders can reuse one buffer
// across frames.
func EncodeFrameAppend(dst []byte, events []Event) []byte {
	dst = appendHeader(dst, uint64(len(events)))
	prev := BranchID(0)
	for _, ev := range events {
		dst = appendRecord(dst, ev, prev)
		prev = ev.Branch
	}
	return dst
}

// AppendFrame appends one length-prefixed frame carrying events to dst and
// returns the extended slice: the allocation-free equivalent of WriteFrame.
func AppendFrame(dst []byte, events []Event) []byte {
	start := len(dst)
	dst = EncodeFrameAppend(dst, events)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(dst)-start))
	// The length prefix precedes the payload; shift the payload right to
	// make room (payloads are small enough that the move is cheap next to
	// the encode itself).
	dst = append(dst, hdr[:n]...)
	copy(dst[start+n:], dst[start:len(dst)-n])
	copy(dst[start:], hdr[:n])
	return dst
}

// DecodeFrame decodes one frame payload produced by EncodeFrameAppend. Every
// payload byte must be consumed: trailing garbage, truncation, and record
// corruption all fail with an error wrapping ErrBadTrace.
func DecodeFrame(payload []byte) ([]Event, error) {
	r, err := NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	// Size the result by the declared count, but never beyond what the
	// payload can physically hold (every record is at least two bytes): a
	// corrupt header must not force a giant allocation before the decode
	// loop detects the truncation.
	capHint := r.Events()
	if max := uint64(len(payload)) / 2; capHint > max {
		capHint = max
	}
	events := make([]Event, 0, capHint)
	for {
		ev, ok := r.Next()
		if !ok {
			break
		}
		events = append(events, ev)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Offset() != int64(len(payload)) {
		return nil, fmt.Errorf("%w: %d trailing bytes after event %d",
			ErrBadTrace, int64(len(payload))-r.Offset(), len(events))
	}
	return events, nil
}

// DecodeFrameAppend decodes one frame payload produced by EncodeFrameAppend,
// appending the events to dst and returning the extended slice. It accepts
// exactly the payloads DecodeFrame accepts and rejects exactly the ones it
// rejects (FuzzDecodeFrameAppend pins the equivalence), but parses the byte
// slice in place instead of layering a buffered reader over it, so the only
// allocation is growing dst. On error dst is returned unchanged (events
// appended before the corruption was detected are dropped).
func DecodeFrameAppend(payload []byte, dst []Event) ([]Event, error) {
	dst, _, err := walkFrame(payload, dst, true)
	return dst, err
}

// ValidateFrame runs DecodeFrameAppend's checks over one frame payload
// without materializing any Event and returns the event count: the same
// accept/reject set and the identical diagnostics (FuzzValidateFrame pins
// both).
func ValidateFrame(payload []byte) (int, error) {
	_, n, err := walkFrame(payload, nil, false)
	return n, err
}

// walkFrame is the one frame payload walker: magic, version, declared
// count, every record's varint shape and ranges, trailing bytes. With keep
// set it appends each event to dst, grown once up front; either way it
// returns the event count. On error dst is returned unchanged.
//
// A record with a one- or two-byte branch delta and a one-byte gap/outcome
// that starts at least four bytes before the payload end — on stream-hot's
// gzip and gcc frames, every record but the last one or two of a frame — is
// decoded in one step by shortRecord; any other record goes field by field
// through frameDecoder, which produces every diagnostic. Both run the same
// ID range check, so the accept/reject set and the error text do not depend
// on the path (TestWalkerEdgeCases and the fuzz targets pin both).
func walkFrame(payload []byte, dst []Event, keep bool) ([]Event, int, error) {
	base := len(dst)
	d := frameDecoder{buf: payload}
	if len(payload) < len(traceMagic) {
		return dst, 0, fmt.Errorf("%w: truncated header: %d bytes (file shorter than the %d-byte magic)",
			ErrBadTrace, len(payload), len(traceMagic))
	}
	if *(*[4]byte)(payload) != traceMagic {
		return dst, 0, fmt.Errorf("%w: bad magic %q at byte offset 0 (want %q)",
			ErrBadTrace, payload[:4], traceMagic[:])
	}
	d.off = len(traceMagic)
	version, err := d.uvarint()
	if err != nil {
		return dst, 0, fmt.Errorf("%w: reading version at byte offset %d: %v", ErrBadTrace, d.off, err)
	}
	if version != traceVersion {
		return dst, 0, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadTrace, version, traceVersion)
	}
	total, err := d.uvarint()
	if err != nil {
		return dst, 0, fmt.Errorf("%w: reading event count at byte offset %d: %v", ErrBadTrace, d.off, err)
	}
	if keep {
		// Every record is at least two bytes, so the payload bounds the
		// events it can hold whatever count the header declares.
		dst = slices.Grow(dst, int(min(total, uint64(len(payload)-d.off)/2)))
	}
	var prevID int64
	for i := uint64(0); i < total; i++ {
		var (
			delta    int64
			gapTaken uint64
		)
		if n, ux, gt := shortRecord(payload[d.off:]); n != 0 {
			d.off += n
			delta, gapTaken = int64(ux>>1)^-int64(ux&1), gt
		} else {
			if delta, err = d.varint(); err != nil {
				return dst[:base], 0, d.fail("branch delta", i, total, err)
			}
			if gapTaken, err = d.uvarint(); err != nil {
				return dst[:base], 0, d.fail("gap/outcome", i, total, err)
			}
		}
		prevID += delta
		if prevID < 0 || prevID > int64(^uint32(0)) {
			return dst[:base], 0, fmt.Errorf("%w: branch id %d out of range at byte offset %d (event %d of %d)",
				ErrBadTrace, prevID, d.off, i, total)
		}
		if gapTaken>>1 > uint64(^uint32(0)) {
			return dst[:base], 0, fmt.Errorf("%w: gap %d out of range at byte offset %d (event %d of %d)",
				ErrBadTrace, gapTaken>>1, d.off, i, total)
		}
		if keep {
			dst = append(dst, Event{
				Branch: BranchID(prevID),
				Taken:  gapTaken&1 == 1,
				Gap:    uint32(gapTaken >> 1),
			})
		}
	}
	if d.off != len(payload) {
		return dst[:base], 0, fmt.Errorf("%w: %d trailing bytes after event %d",
			ErrBadTrace, len(payload)-d.off, total)
	}
	return dst, int(total), nil
}

// shortRecord decodes the record at the head of p in one step when it has
// the shape nearly every record has: a one- or two-byte branch delta and a
// one-byte gap/outcome, with at least four bytes in p. It returns the record
// length, the zig-zag delta as a uvarint and the gap/outcome value, or a
// zero length for any other shape, which the caller decodes field by field.
// It reads the same values the per-field decoder would from the same bytes.
func shortRecord(p []byte) (n int, ux, gapTaken uint64) {
	if len(p) < 4 {
		return
	}
	b0, b1, b2 := uint64(p[0]), uint64(p[1]), uint64(p[2])
	wide := -(b0 >> 7) // all ones if the delta takes two bytes
	gapTaken = b1 ^ (b1^b2)&wide
	if (b1|gapTaken)&0x80 != 0 {
		return 0, 0, 0
	}
	return 2 + int(wide&1), b0&0x7f | b1<<7&wide, gapTaken
}

// frameDecoder walks one frame payload in place, mirroring Reader's varint
// handling (truncation and overflow detection) without its buffering.
type frameDecoder struct {
	buf []byte
	off int
}

func (d *frameDecoder) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if d.off >= len(d.buf) {
			if i > 0 {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, io.EOF
		}
		b := d.buf[d.off]
		d.off++
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

func (d *frameDecoder) varint() (int64, error) {
	ux, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// fail mirrors Reader.fail's diagnostic shape for in-place payload decoding.
func (d *frameDecoder) fail(field string, event, total uint64, err error) error {
	kind := "corrupt"
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		kind = "truncated"
	}
	return fmt.Errorf("%w: %s %s at byte offset %d (event %d of %d): %v",
		ErrBadTrace, kind, field, d.off, event, total, err)
}

// WriteFrame writes one length-prefixed frame carrying events.
func WriteFrame(w io.Writer, events []Event) error {
	_, err := w.Write(AppendFrame(nil, events))
	return err
}

// FrameReader reads a sequence of length-prefixed frames.
type FrameReader struct {
	r     *bufio.Reader
	index int
	err   error // sticky fatal error
}

// NewFrameReader returns a reader over a stream of frames.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Reset discards the reader's position and any sticky error and rewires it
// to read frames from r. The 64 KiB read buffer is kept, so one FrameReader
// can be pooled across many streams without re-allocating it.
func (fr *FrameReader) Reset(r io.Reader) {
	fr.r.Reset(r)
	fr.index = 0
	fr.err = nil
}

// NextPayloadAppend reads the next frame, appends its raw payload bytes to
// payload and its decoded events to events (DecodeFrameAppend: one walk over
// the bytes), and returns both extended slices; the frame's event count is
// how far events grew. Callers that keep the bytes — the WAL stores them
// verbatim — and apply the events never walk the frame twice.
//
//   - io.EOF signals a clean end of the stream (at a frame boundary).
//   - A *FrameError reports a frame whose payload was corrupt; the reader
//     has skipped it and the following call resumes at the next frame.
//   - Any other error is fatal and sticky: the frame boundaries themselves
//     are lost.
//
// On any error both slices are returned unchanged.
func (fr *FrameReader) NextPayloadAppend(payload []byte, events []Event) ([]byte, []Event, error) {
	if fr.err != nil {
		return payload, events, fr.err
	}
	length, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			fr.err = io.EOF
		} else {
			fr.err = fmt.Errorf("%w: reading length of frame %d: %v", ErrBadFrame, fr.index, err)
		}
		return payload, events, fr.err
	}
	if length > MaxFramePayload {
		fr.err = fmt.Errorf("%w: frame %d length %d exceeds the %d-byte cap",
			ErrBadFrame, fr.index, length, MaxFramePayload)
		return payload, events, fr.err
	}
	base := len(payload)
	grown := slices.Grow(payload, int(length))[:base+int(length)]
	if _, err := io.ReadFull(fr.r, grown[base:]); err != nil {
		fr.err = fmt.Errorf("%w: frame %d truncated (%d-byte payload): %v",
			ErrBadFrame, fr.index, length, err)
		return payload, events, fr.err
	}
	index := fr.index
	fr.index++
	decoded, err := DecodeFrameAppend(grown[base:], events)
	if err != nil {
		return payload, events, &FrameError{Index: index, Err: err}
	}
	return grown, decoded, nil
}

// Frames returns how many frames have been consumed (including rejected
// ones).
func (fr *FrameReader) Frames() int { return fr.index }
