package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stream sessions wrap the frame codec for long-lived connections: instead of
// one HTTP POST per batch, a client performs a single handshake (program
// name, controller parameter hash, protocol version, requested window) and
// then pipelines event frames continuously, receiving decision frames back on
// the same connection. This file defines only the session wire format — the
// handshake pair and the typed, length-prefixed session frames; what the
// payloads *mean* (decisions, credit accounting) belongs to the server and
// client on top.
//
// Session wire format, spoken from the first byte of a raw TCP connection to
// reactived's stream listener:
//
//	client → server   handshake:
//	  magic       "RSHS" [4]byte
//	  proto       uvarint   (StreamProtoVersion)
//	  paramsHash  uvarint   (controller-parameter hash; see server.ParamsHash)
//	  window      uvarint   (requested in-flight event frames; 0 = server default)
//	  program     uvarint length + bytes
//
//	server → client   handshake ack:
//	  magic       "RSHA" [4]byte
//	  status      byte      (0 = ok, 1 = rejected)
//	  ok:       proto uvarint, window uvarint (granted), paramsHash uvarint
//	  rejected: code uvarint length + bytes, msg uvarint length + bytes
//
// After an ok ack, both directions speak typed session frames:
//
//	frame:
//	  type     byte
//	  length   uvarint  (payload bytes, capped at MaxFramePayload)
//	  payload
//
// Client → server frame types:
//
//	'E'  events   trace ID uvarint + kind uvarint + one trace blob
//	              (EncodeFrame payload)
//	'C'  close    empty payload; the client is done sending
//
// Server → client frame types:
//
//	'd'  decisions  one applied event frame's results, run-length encoded;
//	                returns one credit
//	'D'  decisions  the same results verbatim, sent instead of 'd' whenever
//	                run-length encoding would not shrink the payload
//	'R'  reject     one corrupt event frame's diagnostic; returns one credit
//	'T'  terminal   code + msg (StreamError layout); the session is over
//
// Credit: the ack's window advertises how many event frames may be in flight
// (sent but not yet answered by a 'd', 'D' or 'R'). The client blocks further
// sends when the window is exhausted; every such frame implicitly returns
// exactly one credit. The server never answers out of order.
const (
	// StreamProtoVersion is the one session protocol version this build
	// speaks. A server acks exactly this version and answers any other with
	// proto_mismatch; there is no negotiation. Every 'E' frame payload leads
	// with a trace context (a uvarint trace ID, 0 = untraced) and a uvarint
	// speculation-kind tag (see Kind), then the trace blob. The value stays 4
	// so the bytes on the wire match every earlier build's proto-4 session.
	StreamProtoVersion = 4

	// StreamFrameEvents carries one trace blob of events (client → server).
	StreamFrameEvents = byte('E')
	// StreamFrameClose announces the end of the client's event stream.
	StreamFrameClose = byte('C')
	// StreamFrameDecisions carries one applied frame's decision bytes
	// verbatim (server → client): the fallback when run-length encoding
	// would not shrink the payload.
	StreamFrameDecisions = byte('D')
	// StreamFrameDecisionsRLE carries one applied frame's decisions
	// run-length encoded (server → client). Equivalent to a 'D' frame
	// after DecodeDecisionsRLE; returns one credit.
	StreamFrameDecisionsRLE = byte('d')
	// StreamFrameReject carries one rejected frame's diagnostic text
	// (server → client).
	StreamFrameReject = byte('R')
	// StreamFrameTerminal ends the session with a StreamError payload
	// (server → client).
	StreamFrameTerminal = byte('T')
)

// Terminal and handshake-rejection codes. The code is the machine-readable
// half of a StreamError; msg carries the human diagnostic.
const (
	// StreamCodeBye is the clean terminal after a client close frame.
	StreamCodeBye = "bye"
	// StreamCodeDraining reports a session ended by server drain.
	StreamCodeDraining = "draining"
	// StreamCodeBadFrame reports a session whose framing was lost.
	StreamCodeBadFrame = "bad_frame"
	// StreamCodeProtoMismatch rejects a handshake with the wrong protocol
	// version.
	StreamCodeProtoMismatch = "proto_mismatch"
	// StreamCodeParamMismatch rejects a handshake whose controller
	// parameter hash differs from the server's.
	StreamCodeParamMismatch = "param_mismatch"
	// StreamCodeMalformed rejects a handshake that failed validation.
	StreamCodeMalformed = "malformed"
	// StreamCodeInternal reports a server-side failure (e.g. the write-ahead
	// log rejecting an append) that ends the session before the frame's
	// events were applied.
	StreamCodeInternal = "internal"
	// StreamCodeReadOnly rejects ingest on a replica: followers serve
	// decisions and metrics but writes belong to the primary.
	StreamCodeReadOnly = "read_only"
)

// MaxHandshakeProgram caps the program-name length a handshake may carry; a
// corrupted length must not force a giant allocation.
const MaxHandshakeProgram = 1 << 12

// ErrBadHandshake reports a stream handshake (or ack) that could not be
// decoded: wrong magic, truncated fields, or out-of-range lengths.
var ErrBadHandshake = errors.New("trace: malformed stream handshake")

var (
	handshakeMagic = [4]byte{'R', 'S', 'H', 'S'}
	handshakeAck   = [4]byte{'R', 'S', 'H', 'A'}
)

// Handshake opens a stream session: who is speaking (Program), under which
// controller parameters (ParamsHash), with which protocol revision, and
// requested pipeline window.
type Handshake struct {
	Proto      uint32
	ParamsHash uint64
	Window     uint32
	Program    string
}

// AppendHandshake appends h's wire form to dst.
func AppendHandshake(dst []byte, h Handshake) []byte {
	dst = append(dst, handshakeMagic[:]...)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	put(uint64(h.Proto))
	put(h.ParamsHash)
	put(uint64(h.Window))
	put(uint64(len(h.Program)))
	return append(dst, h.Program...)
}

// ReadHandshake decodes one handshake from r. Malformed input fails with an
// error wrapping ErrBadHandshake.
func ReadHandshake(r *bufio.Reader) (Handshake, error) {
	var h Handshake
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return h, fmt.Errorf("%w: reading magic: %v", ErrBadHandshake, err)
	}
	if magic != handshakeMagic {
		return h, fmt.Errorf("%w: bad magic %q", ErrBadHandshake, magic[:])
	}
	proto, err := binary.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading protocol version: %v", ErrBadHandshake, err)
	}
	if proto > uint64(^uint32(0)) {
		return h, fmt.Errorf("%w: protocol version %d out of range", ErrBadHandshake, proto)
	}
	if h.ParamsHash, err = binary.ReadUvarint(r); err != nil {
		return h, fmt.Errorf("%w: reading params hash: %v", ErrBadHandshake, err)
	}
	window, err := binary.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading window: %v", ErrBadHandshake, err)
	}
	if window > uint64(^uint32(0)) {
		return h, fmt.Errorf("%w: window %d out of range", ErrBadHandshake, window)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading program length: %v", ErrBadHandshake, err)
	}
	if n > MaxHandshakeProgram {
		return h, fmt.Errorf("%w: program name length %d exceeds the %d-byte cap",
			ErrBadHandshake, n, MaxHandshakeProgram)
	}
	program := make([]byte, n)
	if _, err := io.ReadFull(r, program); err != nil {
		return h, fmt.Errorf("%w: reading program name: %v", ErrBadHandshake, err)
	}
	h.Proto = uint32(proto)
	h.Window = uint32(window)
	h.Program = string(program)
	return h, nil
}

// Ack answers a handshake: either a grant (protocol version, window, and the
// server's parameter hash echoed back) or a rejection carrying a StreamError.
type Ack struct {
	Proto      uint32
	Window     uint32
	ParamsHash uint64
	// Err is non-nil on a rejected handshake; the grant fields are zero.
	Err *StreamError
}

// AppendAck appends a's wire form to dst.
func AppendAck(dst []byte, a Ack) []byte {
	dst = append(dst, handshakeAck[:]...)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	putStr := func(s string) { put(uint64(len(s))); dst = append(dst, s...) }
	if a.Err != nil {
		dst = append(dst, 1)
		putStr(a.Err.Code)
		putStr(a.Err.Msg)
		return dst
	}
	dst = append(dst, 0)
	put(uint64(a.Proto))
	put(uint64(a.Window))
	put(a.ParamsHash)
	return dst
}

// ReadAck decodes one handshake ack from r. A rejected handshake decodes
// cleanly into an Ack with Err set — the rejection is the peer's answer, not
// a wire fault.
func ReadAck(r *bufio.Reader) (Ack, error) {
	var a Ack
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return a, fmt.Errorf("%w: reading ack magic: %v", ErrBadHandshake, err)
	}
	if magic != handshakeAck {
		return a, fmt.Errorf("%w: bad ack magic %q", ErrBadHandshake, magic[:])
	}
	status, err := r.ReadByte()
	if err != nil {
		return a, fmt.Errorf("%w: reading ack status: %v", ErrBadHandshake, err)
	}
	switch status {
	case 0:
		proto, err := binary.ReadUvarint(r)
		if err != nil {
			return a, fmt.Errorf("%w: reading ack protocol version: %v", ErrBadHandshake, err)
		}
		window, err := binary.ReadUvarint(r)
		if err != nil {
			return a, fmt.Errorf("%w: reading ack window: %v", ErrBadHandshake, err)
		}
		if proto > uint64(^uint32(0)) || window > uint64(^uint32(0)) {
			return a, fmt.Errorf("%w: ack field out of range", ErrBadHandshake)
		}
		if a.ParamsHash, err = binary.ReadUvarint(r); err != nil {
			return a, fmt.Errorf("%w: reading ack params hash: %v", ErrBadHandshake, err)
		}
		a.Proto = uint32(proto)
		a.Window = uint32(window)
		return a, nil
	case 1:
		se, err := readStreamError(r)
		if err != nil {
			return a, err
		}
		a.Err = &se
		return a, nil
	default:
		return a, fmt.Errorf("%w: unknown ack status %d", ErrBadHandshake, status)
	}
}

// StreamError is the typed payload of a terminal frame and of a rejected
// handshake: a machine-readable code plus a human diagnostic.
type StreamError struct {
	Code string
	Msg  string
}

func (e *StreamError) Error() string {
	if e.Msg == "" {
		return "stream terminated: " + e.Code
	}
	return fmt.Sprintf("stream terminated: %s: %s", e.Code, e.Msg)
}

// maxStreamErrorText caps the code and message lengths of a StreamError.
const maxStreamErrorText = 1 << 12

// AppendStreamError appends e's payload form (code + msg, each
// length-prefixed) to dst.
func AppendStreamError(dst []byte, e StreamError) []byte {
	var tmp [binary.MaxVarintLen64]byte
	putStr := func(s string) {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(s)))]...)
		dst = append(dst, s...)
	}
	putStr(e.Code)
	putStr(e.Msg)
	return dst
}

// DecodeStreamError decodes a StreamError payload (a terminal frame's body).
func DecodeStreamError(payload []byte) (StreamError, error) {
	r := bytes.NewReader(payload)
	br := bufio.NewReader(r)
	se, err := readStreamError(br)
	if err != nil {
		return se, err
	}
	if trailing := br.Buffered() + r.Len(); trailing > 0 {
		return se, fmt.Errorf("%w: %d trailing bytes after stream error", ErrBadHandshake, trailing)
	}
	return se, nil
}

func readStreamError(r *bufio.Reader) (StreamError, error) {
	var se StreamError
	read := func(field string) (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return "", fmt.Errorf("%w: reading %s length: %v", ErrBadHandshake, field, err)
		}
		if n > maxStreamErrorText {
			return "", fmt.Errorf("%w: %s length %d exceeds the %d-byte cap",
				ErrBadHandshake, field, n, maxStreamErrorText)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", fmt.Errorf("%w: reading %s: %v", ErrBadHandshake, field, err)
		}
		return string(b), nil
	}
	var err error
	if se.Code, err = read("error code"); err != nil {
		return se, err
	}
	if se.Msg, err = read("error message"); err != nil {
		return se, err
	}
	return se, nil
}

// AppendTraceContext appends the trace context — one uvarint trace ID, zero
// meaning untraced — that prefixes an 'E' frame payload.
func AppendTraceContext(dst []byte, traceID uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], traceID)]...)
}

// CutTraceContext splits an 'E' frame payload into its trace ID and the
// bytes that follow.
func CutTraceContext(payload []byte) (traceID uint64, rest []byte, err error) {
	traceID, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: events frame trace context is malformed", ErrBadFrame)
	}
	return traceID, payload[n:], nil
}

// AppendSessionFrame appends one typed session frame (type byte, uvarint
// payload length, payload) to dst.
func AppendSessionFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(payload)))]...)
	return append(dst, payload...)
}

// ReadSessionFrame reads one typed session frame from r. When the payload
// fits inside r's internal buffer the returned slice aliases that buffer
// (Peek + Discard, no copy); larger payloads are read into scratch, grown as
// needed and returned for reuse. Either way the payload is valid only until
// the next read from r, so every caller consumes it before reading again.
// Framing damage — an unreadable type byte, an over-cap length, a truncated
// payload — fails with an error wrapping ErrBadFrame; a clean EOF at a frame
// boundary returns io.EOF.
func ReadSessionFrame(r *bufio.Reader, scratch []byte) (typ byte, payload, newScratch []byte, err error) {
	return readFrame(r, scratch, MaxFramePayload)
}

// readFrame is ReadSessionFrame with an explicit payload cap; the replication
// channel needs a slightly larger one because its record frames wrap a full
// trace frame payload plus the program name and seq metadata.
func readFrame(r *bufio.Reader, scratch []byte, maxPayload uint64) (typ byte, payload, newScratch []byte, err error) {
	typ, err = r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return 0, nil, scratch, io.EOF
		}
		return 0, nil, scratch, fmt.Errorf("%w: reading session frame type: %v", ErrBadFrame, err)
	}
	length, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, scratch, fmt.Errorf("%w: reading session frame length: %v", ErrBadFrame, err)
	}
	if length > maxPayload {
		return 0, nil, scratch, fmt.Errorf("%w: session frame length %d exceeds the %d-byte cap",
			ErrBadFrame, length, maxPayload)
	}
	if length <= uint64(r.Size()) {
		payload, err = r.Peek(int(length))
		if err == nil {
			r.Discard(int(length))
			return typ, payload, scratch, nil
		}
		// Mirror io.ReadFull's truncation semantics: EOF after a partial
		// payload is an unexpected EOF.
		if err == io.EOF && len(payload) > 0 {
			err = io.ErrUnexpectedEOF
		}
	} else {
		if uint64(cap(scratch)) < length {
			scratch = make([]byte, length)
		}
		payload = scratch[:length]
		_, err = io.ReadFull(r, payload)
		if err == nil {
			return typ, payload, scratch, nil
		}
	}
	return 0, nil, scratch, fmt.Errorf("%w: session frame truncated (%d-byte payload): %v",
		ErrBadFrame, length, err)
}
