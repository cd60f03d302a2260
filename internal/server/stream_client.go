package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/session"
	"reactivespec/internal/trace"
)

// Stream is one open streaming ingest session (see stream.go for the
// protocol). SendKind and Recv may run on different goroutines — that is the
// intended pipelined shape: a sender pushes event frames while a receiver
// drains decision frames, with up to Window frames in flight. A send blocks
// when the window is exhausted until the receiver frees a slot.
//
// Results arrive strictly in send order. The session ends either with Close
// (clean "bye") or with the server's terminal frame: a drained server
// surfaces ErrDraining from Recv/SendKind/Close, never a bare connection reset.
type Stream struct {
	c *session.Conn

	window  int
	program string            // handshake program, stamped on client spans
	tracer  *obs.Tracer       // nil when the session is untraced
	credits chan struct{}     // capacity window; a token = permission to send one frame
	results chan streamResult // capacity window; reader never blocks on it

	sendMu  sync.Mutex
	closed  bool   // guarded by sendMu: a close frame has been written
	sendBuf []byte // guarded by sendMu: reused frame scratch
	evBuf   []byte // guarded by sendMu: reused event-payload scratch

	readerDone chan struct{}
	termErr    error // valid after readerDone closes
}

// streamResult is one frame's outcome, in send order.
type streamResult struct {
	decisions []Decision
	err       error // per-frame rejection (session continues)
}

// streamConfig collects DialStream options.
type streamConfig struct {
	window uint32
	tracer *obs.Tracer
}

// StreamOption configures DialStream.
type StreamOption func(*streamConfig)

// WithStreamWindow requests a pipeline window of n in-flight event frames.
// The server clamps the grant to [1, MaxStreamWindow]; 0 (the default)
// accepts the server's DefaultStreamWindow.
func WithStreamWindow(n int) StreamOption {
	return func(sc *streamConfig) {
		if n > 0 {
			sc.window = uint32(n)
		}
	}
}

// WithStreamTracer samples this session's sends into t: a sampled frame
// records client_encode and client_network spans and carries its trace ID to
// the server in the frame's trace context.
func WithStreamTracer(t *obs.Tracer) StreamOption {
	return func(sc *streamConfig) { sc.tracer = t }
}

// DialStream opens a streaming session on reactived's raw TCP stream
// listener (reactived -stream-addr, addr is host:port); the session protocol
// starts immediately after connect. The controller-parameter hash must be
// supplied explicitly — the stream listener has no /v1/info to consult
// (compute it with ParamsHash, or copy it from an Info lookup on the HTTP
// address). ctx governs the dial and handshake only; the returned Stream
// outlives it.
func DialStream(ctx context.Context, addr, program string, paramsHash uint64, opts ...StreamOption) (*Stream, error) {
	var sc streamConfig
	for _, opt := range opts {
		opt(&sc)
	}
	hs := trace.Handshake{
		Proto:      trace.StreamProtoVersion,
		ParamsHash: paramsHash,
		Window:     sc.window,
		Program:    program,
	}
	c, ack, err := session.Dial(ctx, session.TCP(addr), trace.AppendHandshake(nil, hs), trace.ReadAck)
	if err != nil {
		return nil, fmt.Errorf("server: stream: %w", err)
	}
	switch {
	case ack.Err != nil:
		err = streamTerminalError(*ack.Err)
	case ack.Proto != hs.Proto:
		err = fmt.Errorf("server: stream: server acked protocol %d, client speaks %d", ack.Proto, hs.Proto)
	case ack.Window == 0:
		err = fmt.Errorf("server: stream: server granted a zero window")
	}
	if err != nil {
		c.Close()
		return nil, err
	}

	st := &Stream{
		c:          c,
		window:     int(ack.Window),
		program:    hs.Program,
		tracer:     sc.tracer,
		credits:    make(chan struct{}, ack.Window),
		results:    make(chan streamResult, ack.Window),
		readerDone: make(chan struct{}),
	}
	for i := 0; i < st.window; i++ {
		st.credits <- struct{}{}
	}
	go st.readLoop(c.R)
	return st, nil
}

// streamTerminalError maps a terminal/ack StreamError onto the package's
// sentinels: "draining" wraps ErrDraining, "param_mismatch" wraps
// ErrParamsMismatch, "read_only" wraps ErrReadOnly, a clean "bye" is io.EOF.
func streamTerminalError(e trace.StreamError) error {
	switch e.Code {
	case trace.StreamCodeBye:
		return io.EOF
	case trace.StreamCodeDraining:
		return fmt.Errorf("%w: %s", ErrDraining, e.Error())
	case trace.StreamCodeParamMismatch:
		return fmt.Errorf("%w: %s", ErrParamsMismatch, e.Error())
	case trace.StreamCodeReadOnly:
		return fmt.Errorf("%w: %s", ErrReadOnly, e.Error())
	}
	return &e
}

// readLoop drains the connection: decision and reject frames feed the
// results channel (returning one window credit each), a terminal frame ends
// the session with its typed error.
func (st *Stream) readLoop(br *bufio.Reader) {
	defer close(st.readerDone)
	defer close(st.results)
	var scratch, decScratch []byte
	// Every payload is consumed (decoded into fresh Decisions, formatted,
	// or copied into a StreamError) before the next read invalidates it.
	finish := func(err error) { st.termErr = err }
	for {
		typ, payload, newScratch, err := trace.ReadSessionFrame(br, scratch)
		scratch = newScratch
		if err != nil {
			finish(fmt.Errorf("server: stream: reading frame: %w", err))
			return
		}
		switch typ {
		case trace.StreamFrameDecisions:
			decisions, err := decodeDecisionsPayload(payload)
			if err != nil {
				finish(err)
				return
			}
			st.results <- streamResult{decisions: decisions}
			st.credits <- struct{}{}
		case trace.StreamFrameDecisionsRLE:
			// The RLE form decodes to exactly the bytes a plain 'D' frame
			// would have carried; Recv callers never see the difference.
			decScratch, err = trace.DecodeDecisionsRLE(payload, decScratch[:0])
			if err != nil {
				finish(fmt.Errorf("server: stream: decoding coalesced decisions frame: %w", err))
				return
			}
			decisions, err := decisionsFromBytes(decScratch)
			if err != nil {
				finish(err)
				return
			}
			st.results <- streamResult{decisions: decisions}
			st.credits <- struct{}{}
		case trace.StreamFrameReject:
			st.results <- streamResult{err: fmt.Errorf("server: frame rejected: %s", payload)}
			st.credits <- struct{}{}
		case trace.StreamFrameTerminal:
			se, err := trace.DecodeStreamError(payload)
			if err != nil {
				finish(fmt.Errorf("server: stream: decoding terminal frame: %w", err))
				return
			}
			finish(streamTerminalError(se))
			return
		default:
			finish(fmt.Errorf("server: stream: unexpected frame type %q", typ))
			return
		}
	}
}

// decodeDecisionsPayload parses a 'D' frame payload: count uvarint, then one
// decision byte per event.
func decodeDecisionsPayload(payload []byte) ([]Decision, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 || uint64(len(payload)-used) != n {
		return nil, fmt.Errorf("server: stream: malformed decisions frame (%d bytes for %d decisions)",
			len(payload)-used, n)
	}
	return decisionsFromBytes(payload[used:])
}

// decisionsFromBytes decodes one Decision per raw wire byte.
func decisionsFromBytes(raw []byte) ([]Decision, error) {
	decisions := make([]Decision, len(raw))
	var err error
	for i, b := range raw {
		if decisions[i], err = DecodeDecision(b); err != nil {
			return nil, fmt.Errorf("server: stream: decision %d: %w", i, err)
		}
	}
	return decisions, nil
}

// Window reports the granted pipeline window (max in-flight event frames).
func (st *Stream) Window() int { return st.window }

// SendKind ships one batch of events of the given speculation kind as a
// single in-flight frame. It blocks while the window is exhausted, until the
// receiver frees a slot, ctx ends, or the session terminates. Each
// successful send owes exactly one Recv. An invalid kind fails without
// consuming a window credit.
func (st *Stream) SendKind(ctx context.Context, kind trace.Kind, events []trace.Event) error {
	return st.send(ctx, kind, events, nil, len(events))
}

// SendEncodedKind ships one pre-encoded event frame — the exact bytes
// trace.EncodeFrameAppend produces for a batch — without re-encoding.
// Callers that already hold wire frames (benchmarks isolating transport
// cost, WAL replayers) skip the per-event encode entirely. nevents must be
// the frame's event count; it feeds span metadata only. Blocking and credit
// semantics are identical to SendKind.
func (st *Stream) SendEncodedKind(ctx context.Context, kind trace.Kind, frame []byte, nevents int) error {
	return st.send(ctx, kind, nil, frame, nevents)
}

func (st *Stream) send(ctx context.Context, kind trace.Kind, events []trace.Event, frame []byte, nevents int) error {
	if !kind.Valid() {
		return fmt.Errorf("server: stream: invalid kind %s (%w)", kind, ErrUnsupportedKind)
	}
	// A terminated session fails fast even when credits are available (the
	// local socket write could otherwise "succeed" into the kernel buffer).
	select {
	case <-st.readerDone:
		return st.terminalErr()
	default:
	}
	select {
	case <-st.credits:
	case <-st.readerDone:
		return st.terminalErr()
	case <-ctx.Done():
		return ctx.Err()
	}
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	if st.closed {
		return fmt.Errorf("server: stream: send after Close")
	}
	// Sampling happens per frame; every event payload leads with a trace
	// context (zero = untraced) and a kind tag (branch is a single zero
	// byte), so the wire shape is uniform.
	traceID := st.tracer.SampleBatch()
	encodeStart := time.Now()
	// The session frame carries its own length, so the payload is the bare
	// trace frame (no AppendFrame length prefix).
	st.evBuf = trace.AppendTraceContext(st.evBuf[:0], traceID)
	st.evBuf = trace.AppendKind(st.evBuf, kind)
	if frame != nil {
		st.evBuf = append(st.evBuf, frame...)
	} else {
		st.evBuf = trace.EncodeFrameAppend(st.evBuf, events)
	}
	st.sendBuf = trace.AppendSessionFrame(st.sendBuf[:0], trace.StreamFrameEvents, st.evBuf)
	netStart := time.Now()
	_, err := st.c.W.Write(st.sendBuf)
	if err == nil {
		err = st.c.W.Flush()
	}
	if err != nil {
		return st.sendFailed(err)
	}
	if traceID != 0 {
		// client_network here is the send-side write+flush only: the
		// pipelined response lands in Recv on another goroutine, so the
		// round trip is not attributable to one frame from here.
		st.tracer.RecordStage(traceID, 0, "client_encode", st.program, nevents, 0, encodeStart, netStart.Sub(encodeStart))
		st.tracer.RecordStage(traceID, 0, "client_network", st.program, nevents, 0, netStart, time.Since(netStart))
	}
	return nil
}

// sendFailed turns a write error into the session's terminal error when the
// reader has already seen one (the server closed on us; its terminal frame
// is the real diagnostic).
func (st *Stream) sendFailed(err error) error {
	select {
	case <-st.readerDone:
		return st.terminalErr()
	default:
		return fmt.Errorf("server: stream: sending frame: %w", err)
	}
}

// Recv returns the next frame's outcome, in send order: the per-event
// decisions, or the server's per-frame rejection error (the session stays
// usable after a rejection). Once the session terminates and all pending
// results are drained, Recv returns the terminal error — io.EOF after a
// clean Close, ErrDraining when the server drained.
func (st *Stream) Recv(ctx context.Context) ([]Decision, error) {
	select {
	case r, ok := <-st.results:
		if !ok {
			return nil, st.terminalErr()
		}
		return r.decisions, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// terminalErr reads the reader goroutine's verdict; only valid once
// readerDone is closed.
func (st *Stream) terminalErr() error {
	<-st.readerDone
	if st.termErr == nil {
		return io.EOF
	}
	return st.termErr
}

// Close ends the session: it sends a close frame, waits for the server's
// terminal frame, and closes the connection. Decision frames not yet Recv'd
// are discarded — Recv everything owed first if the decisions matter; do not
// call Recv concurrently with Close. A clean "bye" returns nil; a drain race
// returns ErrDraining.
//
// Close is also the abort path: discarding undelivered results unwedges the
// reader (whose results channel may be full on an abandoned session), which
// in turn returns window credits and unblocks any send stuck waiting for
// one (it then fails with a send-after-Close error).
func (st *Stream) Close() error {
	st.sendMu.Lock()
	if !st.closed {
		st.closed = true
		frame := trace.AppendSessionFrame(nil, trace.StreamFrameClose, nil)
		if _, err := st.c.W.Write(frame); err == nil {
			st.c.W.Flush()
		}
	}
	st.sendMu.Unlock()
	for range st.results {
	}
	err := st.terminalErr()
	st.c.Close()
	if err == io.EOF {
		return nil
	}
	return err
}
