package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Replication sessions ship write-ahead-log records from a primary to a
// follower over one long-lived connection, reusing the stream session's
// framing conventions (typed frames, uvarint lengths, StreamError payloads)
// with the roles reversed: the *server* (primary) streams data and the
// *client* (follower) returns flow control.
//
// Replication wire format, after a raw TCP connect to the primary's
// replication listener:
//
//	follower → primary   hello:
//	  magic       "RSRH" [4]byte
//	  proto       uvarint   (ReplicationProtoVersion)
//	  paramsHash  uvarint   (controller-parameter hash; see server.ParamsHash)
//	  from        uvarint   (first WAL sequence number wanted)
//	  window      uvarint   (requested in-flight records; 0 = primary default)
//
//	primary → follower   hello ack:
//	  magic       "RSRA" [4]byte
//	  status      byte      (0 = ok, 1 = rejected)
//	  ok:       proto uvarint, window uvarint (granted),
//	            oldest uvarint (oldest retained seq), next uvarint (end of log)
//	  rejected: code uvarint length + bytes, msg uvarint length + bytes
//
// After an ok ack, both directions speak typed session frames:
//
//	primary → follower:
//	  'S'  record    one WAL record: seq, the primary's durable boundary,
//	                 the ship timestamp, the program, and the raw trace
//	                 frame payload exactly as logged
//	  'T'  terminal  code + msg (StreamError layout); the session is over
//
//	follower → primary:
//	  'A'  ack       cumulative: every record below the carried sequence
//	                 number has been applied (and logged) by the follower
//	  'C'  close     empty payload; the follower detaches cleanly
//
// Credit: the ack's window bounds how many shipped records may be
// unacknowledged (seq − ackedSeq). The primary stops shipping at the window
// edge and resumes as acks arrive, so a slow follower exerts backpressure
// without unbounded buffering — the same discipline the ingest stream uses,
// with cumulative acks instead of per-frame credits because WAL sequence
// numbers give a total order for free.
const (
	// ReplicationProtoVersion is the one replication protocol revision this
	// build speaks. Like the ingest stream there is no negotiation: the
	// primary acks exactly this revision and answers any other hello with
	// proto_mismatch. The value stays 2 so the bytes on the wire match
	// every earlier build's proto-2 session.
	ReplicationProtoVersion = 2

	// ReplFrameRecord carries one WAL record (primary → follower).
	ReplFrameRecord = byte('S')
	// ReplFrameAck carries the follower's cumulative applied sequence
	// (follower → primary).
	ReplFrameAck = byte('A')
)

// ReplCodeCompacted rejects a hello whose from-sequence has already been
// compacted away on the primary: the follower cannot catch up from the log
// alone and needs a full resync (fresh snapshot + empty WAL directory).
const ReplCodeCompacted = "compacted"

// MaxReplPayload caps one replication session frame's payload: a full trace
// frame payload plus the program name and the record header varints.
const MaxReplPayload = MaxFramePayload + MaxHandshakeProgram + 5*binary.MaxVarintLen64

var (
	replHelloMagic = [4]byte{'R', 'S', 'R', 'H'}
	replAckMagic   = [4]byte{'R', 'S', 'R', 'A'}
)

// ReplHello opens a replication session: which protocol revision, under
// which controller parameters, resuming from which WAL sequence, with which
// requested credit window.
type ReplHello struct {
	Proto      uint32
	ParamsHash uint64
	From       uint64
	Window     uint32
}

// AppendReplHello appends h's wire form to dst.
func AppendReplHello(dst []byte, h ReplHello) []byte {
	dst = append(dst, replHelloMagic[:]...)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	put(uint64(h.Proto))
	put(h.ParamsHash)
	put(h.From)
	put(uint64(h.Window))
	return dst
}

// ReadReplHello decodes one replication hello from r. Malformed input fails
// with an error wrapping ErrBadHandshake.
func ReadReplHello(r *bufio.Reader) (ReplHello, error) {
	var h ReplHello
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return h, fmt.Errorf("%w: reading replication magic: %v", ErrBadHandshake, err)
	}
	if magic != replHelloMagic {
		return h, fmt.Errorf("%w: bad replication magic %q", ErrBadHandshake, magic[:])
	}
	proto, err := binary.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading replication protocol version: %v", ErrBadHandshake, err)
	}
	if proto > uint64(^uint32(0)) {
		return h, fmt.Errorf("%w: replication protocol version %d out of range", ErrBadHandshake, proto)
	}
	if h.ParamsHash, err = binary.ReadUvarint(r); err != nil {
		return h, fmt.Errorf("%w: reading params hash: %v", ErrBadHandshake, err)
	}
	if h.From, err = binary.ReadUvarint(r); err != nil {
		return h, fmt.Errorf("%w: reading from-sequence: %v", ErrBadHandshake, err)
	}
	window, err := binary.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading window: %v", ErrBadHandshake, err)
	}
	if window > uint64(^uint32(0)) {
		return h, fmt.Errorf("%w: window %d out of range", ErrBadHandshake, window)
	}
	h.Proto = uint32(proto)
	h.Window = uint32(window)
	return h, nil
}

// ReplAck answers a replication hello: either a grant (granted window plus
// the primary's retained range, so the follower can size its catch-up) or a
// rejection carrying a StreamError.
type ReplAck struct {
	Proto  uint32
	Window uint32
	// Oldest and Next bound the primary's retained range [Oldest, Next) at
	// hello time.
	Oldest uint64
	Next   uint64
	// Err is non-nil on a rejected hello; the grant fields are zero.
	Err *StreamError
}

// AppendReplAck appends a's wire form to dst.
func AppendReplAck(dst []byte, a ReplAck) []byte {
	dst = append(dst, replAckMagic[:]...)
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
	put(a.Oldest)
	put(a.Next)
	return dst
}

// ReadReplAck decodes one replication hello ack from r. A rejection decodes
// cleanly into a ReplAck with Err set — the rejection is the primary's
// answer, not a wire fault.
func ReadReplAck(r *bufio.Reader) (ReplAck, error) {
	var a ReplAck
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return a, fmt.Errorf("%w: reading replication ack magic: %v", ErrBadHandshake, err)
	}
	if magic != replAckMagic {
		return a, fmt.Errorf("%w: bad replication ack magic %q", ErrBadHandshake, magic[:])
	}
	status, err := r.ReadByte()
	if err != nil {
		return a, fmt.Errorf("%w: reading replication ack status: %v", ErrBadHandshake, err)
	}
	switch status {
	case 0:
		proto, err := binary.ReadUvarint(r)
		if err != nil {
			return a, fmt.Errorf("%w: reading replication ack protocol version: %v", ErrBadHandshake, err)
		}
		window, err := binary.ReadUvarint(r)
		if err != nil {
			return a, fmt.Errorf("%w: reading replication ack window: %v", ErrBadHandshake, err)
		}
		if proto > uint64(^uint32(0)) || window > uint64(^uint32(0)) {
			return a, fmt.Errorf("%w: replication ack field out of range", ErrBadHandshake)
		}
		if a.Oldest, err = binary.ReadUvarint(r); err != nil {
			return a, fmt.Errorf("%w: reading replication ack oldest sequence: %v", ErrBadHandshake, err)
		}
		if a.Next, err = binary.ReadUvarint(r); err != nil {
			return a, fmt.Errorf("%w: reading replication ack next sequence: %v", ErrBadHandshake, err)
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
		return a, fmt.Errorf("%w: unknown replication ack status %d", ErrBadHandshake, status)
	}
}

// ReplRecord is one shipped WAL record: its sequence number, the primary's
// durable boundary and wall-clock at ship time (the follower derives its lag
// gauges from both), the program, and the raw trace frame payload exactly as
// it sits in the log.
type ReplRecord struct {
	Seq uint64
	// Durable is the primary's DurableSeq when the record was shipped; the
	// follower's record lag is Durable − (Seq+1).
	Durable uint64
	// ShippedUnixNanos is the primary's wall clock at ship time; the
	// follower's seconds-lag gauge is its own clock minus this (clock skew
	// applies, as with any cross-host lag measure).
	ShippedUnixNanos uint64
	// Trace is the span-trace ID of the ingest batch that appended this
	// record, zero when untraced. On the wire it sits between the ship
	// timestamp and the program — it cannot trail the payload because
	// Frame is defined as "the rest".
	Trace   uint64
	Program string
	// Frame is the raw trace frame payload. Decoding on ship would be
	// wasted work — the replica decodes it exactly once, on apply.
	Frame []byte
}

// AppendReplRecord appends rec as a complete 'S' session frame to dst.
func AppendReplRecord(dst []byte, rec ReplRecord) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) { dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	dst = append(dst, ReplFrameRecord)
	payloadLen := uvarintLen(rec.Seq) + uvarintLen(rec.Durable) + uvarintLen(rec.ShippedUnixNanos) +
		uvarintLen(rec.Trace) + uvarintLen(uint64(len(rec.Program))) + len(rec.Program) + len(rec.Frame)
	put(uint64(payloadLen))
	put(rec.Seq)
	put(rec.Durable)
	put(rec.ShippedUnixNanos)
	put(rec.Trace)
	put(uint64(len(rec.Program)))
	dst = append(dst, rec.Program...)
	return append(dst, rec.Frame...)
}

// DecodeReplRecord decodes an 'S' frame payload. The returned record's Frame
// aliases payload.
func DecodeReplRecord(payload []byte) (ReplRecord, error) {
	var rec ReplRecord
	next := func(field string) (uint64, error) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, fmt.Errorf("%w: replication record %s is malformed", ErrBadFrame, field)
		}
		payload = payload[n:]
		return v, nil
	}
	var err error
	if rec.Seq, err = next("sequence"); err != nil {
		return rec, err
	}
	if rec.Durable, err = next("durable boundary"); err != nil {
		return rec, err
	}
	if rec.ShippedUnixNanos, err = next("ship timestamp"); err != nil {
		return rec, err
	}
	if rec.Trace, err = next("trace context"); err != nil {
		return rec, err
	}
	progLen, err := next("program length")
	if err != nil {
		return rec, err
	}
	if progLen > MaxHandshakeProgram || progLen > uint64(len(payload)) {
		return rec, fmt.Errorf("%w: replication record program length %d out of range", ErrBadFrame, progLen)
	}
	rec.Program = string(payload[:progLen])
	rec.Frame = payload[progLen:]
	return rec, nil
}

// AppendReplAckFrame appends a cumulative 'A' ack frame to dst: every record
// below ackedSeq has been applied by the follower.
func AppendReplAckFrame(dst []byte, ackedSeq uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], ackedSeq)
	dst = append(dst, ReplFrameAck)
	var tmp2 [binary.MaxVarintLen64]byte
	dst = append(dst, tmp2[:binary.PutUvarint(tmp2[:], uint64(n))]...)
	return append(dst, tmp[:n]...)
}

// DecodeReplAckFrame decodes an 'A' frame payload.
func DecodeReplAckFrame(payload []byte) (uint64, error) {
	acked, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, fmt.Errorf("%w: replication ack frame is malformed", ErrBadFrame)
	}
	return acked, nil
}

// ReadReplFrame reads one replication session frame — ReadSessionFrame, with
// its payload lifetime, but with the larger replication payload cap.
func ReadReplFrame(r *bufio.Reader, scratch []byte) (typ byte, payload, newScratch []byte, err error) {
	return readFrame(r, scratch, MaxReplPayload)
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
