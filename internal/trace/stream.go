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
//	              (EncodeFrameAppend payload)
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
	dst = appendHello(dst, handshakeMagic, uint64(h.Proto), h.ParamsHash, uint64(h.Window), uint64(len(h.Program)))
	return append(dst, h.Program...)
}

// ReadHandshake decodes one handshake from r. Malformed input fails with an
// error wrapping ErrBadHandshake.
func ReadHandshake(r *bufio.Reader) (Handshake, error) {
	d := openHello(r, handshakeMagic, "handshake")
	return finish(&d, Handshake{
		Proto:      d.uint32("protocol version"),
		ParamsHash: d.uvarint("params hash"),
		Window:     d.uint32("window"),
		Program:    d.text("program name", MaxHandshakeProgram),
	})
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
	return appendAck(dst, handshakeAck, a.Err, uint64(a.Proto), uint64(a.Window), a.ParamsHash)
}

// ReadAck decodes one handshake ack from r. A rejected handshake decodes
// cleanly into an Ack with Err set — the rejection is the peer's answer, not
// a wire fault.
func ReadAck(r *bufio.Reader) (Ack, error) {
	d := openHello(r, handshakeAck, "handshake ack")
	a := Ack{Err: d.status()}
	if a.Err == nil {
		a.Proto, a.Window, a.ParamsHash = d.uint32("protocol version"), d.uint32("window"), d.uvarint("params hash")
	}
	return finish(&d, a)
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
	dst = append(binary.AppendUvarint(dst, uint64(len(e.Code))), e.Code...)
	return append(binary.AppendUvarint(dst, uint64(len(e.Msg))), e.Msg...)
}

// DecodeStreamError decodes a StreamError payload (a terminal frame's body).
func DecodeStreamError(payload []byte) (StreamError, error) {
	r := bytes.NewReader(payload)
	d := helloReader{r: bufio.NewReader(r), name: "stream error"}
	se := d.streamError()
	if trailing := d.r.Buffered() + r.Len(); d.err == nil && trailing > 0 {
		d.fail("%d trailing bytes", trailing)
	}
	return finish(&d, se)
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
