package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Both raw-TCP sessions — the ingest stream (Handshake/Ack) and WAL
// replication (ReplHello/ReplAck) — open with the same two-message layout:
//
//	hello:  magic [4]byte, then uvarint fields (a string is a uvarint
//	        length and its bytes)
//	ack:    magic [4]byte, status byte (0 = ok, 1 = rejected),
//	        ok: uvarint fields; rejected: a StreamError (code + msg)
//
// The four exported codecs differ only in their magic and field list; this
// file reads and writes the layout for all of them.

var (
	handshakeMagic = [4]byte{'R', 'S', 'H', 'S'}
	handshakeAck   = [4]byte{'R', 'S', 'H', 'A'}
	replHelloMagic = [4]byte{'R', 'S', 'R', 'H'}
	replAckMagic   = [4]byte{'R', 'S', 'R', 'A'}
)

// appendHello appends a hello: magic, then each field as a uvarint.
func appendHello(dst []byte, magic [4]byte, fields ...uint64) []byte {
	return appendUvarints(append(dst, magic[:]...), fields)
}

// appendAck appends an ack: a rejection carrying rej, or a grant carrying
// fields.
func appendAck(dst []byte, magic [4]byte, rej *StreamError, fields ...uint64) []byte {
	dst = append(dst, magic[:]...)
	if rej != nil {
		return AppendStreamError(append(dst, 1), *rej)
	}
	return appendUvarints(append(dst, 0), fields)
}

func appendUvarints(dst []byte, fields []uint64) []byte {
	for _, v := range fields {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// helloReader decodes one hello or ack field by field. Its error is sticky:
// once a field fails, later reads return zero values, so a decoder lists its
// fields in wire order — Go makes the calls in a composite literal or an
// assignment left to right — and checks the error once, in finish.
type helloReader struct {
	r    *bufio.Reader
	name string // the message, for diagnostics
	err  error
}

// openHello reads and checks magic. Every failure wraps ErrBadHandshake.
func openHello(r *bufio.Reader, magic [4]byte, name string) helloReader {
	d := helloReader{r: r, name: name}
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		d.fail("reading magic: %v", err)
	} else if got != magic {
		d.fail("bad magic %q", got[:])
	}
	return d
}

func (d *helloReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s: %s", ErrBadHandshake, d.name, fmt.Sprintf(format, args...))
	}
}

func (d *helloReader) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail("reading %s: %v", field, err)
	}
	return v
}

// uint32 reads a uvarint that must fit in 32 bits.
func (d *helloReader) uint32(field string) uint32 {
	v := d.uvarint(field)
	if v > math.MaxUint32 {
		d.fail("%s %d out of range", field, v)
		return 0
	}
	return uint32(v)
}

// text reads a length-prefixed string of at most max bytes; an over-cap
// length fails before anything is allocated.
func (d *helloReader) text(field string, max uint64) string {
	n := d.uvarint(field + " length")
	if d.err != nil {
		return ""
	}
	if n > max {
		d.fail("%s length %d exceeds the %d-byte cap", field, n, max)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail("reading %s: %v", field, err)
		return ""
	}
	return string(b)
}

// streamError reads a StreamError's code and message.
func (d *helloReader) streamError() StreamError {
	code := d.text("error code", maxStreamErrorText)
	return StreamError{Code: code, Msg: d.text("error message", maxStreamErrorText)}
}

// status reads an ack's status byte: nil for a grant, whose fields follow,
// or the peer's rejection.
func (d *helloReader) status() *StreamError {
	if d.err != nil {
		return nil
	}
	b, err := d.r.ReadByte()
	switch {
	case err != nil:
		d.fail("reading status: %v", err)
	case b == 1:
		if se := d.streamError(); d.err == nil {
			return &se
		}
	case b != 0:
		d.fail("unknown status %d", b)
	}
	return nil
}

// finish returns v, or v's zero value and the first failure.
func finish[T any](d *helloReader, v T) (T, error) {
	if d.err != nil {
		var zero T
		return zero, d.err
	}
	return v, nil
}
