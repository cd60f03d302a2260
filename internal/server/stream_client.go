package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"reactivespec/internal/obs"
	"reactivespec/internal/trace"
)

// Stream is one open streaming ingest session (see stream.go for the
// protocol). Send and Recv may run on different goroutines — that is the
// intended pipelined shape: a sender pushes event frames while a receiver
// drains decision frames, with up to Window frames in flight. Send blocks
// when the window is exhausted until the receiver frees a slot.
//
// Results arrive strictly in Send order. The session ends either with Close
// (clean "bye") or with the server's terminal frame: a drained server
// surfaces ErrDraining from Recv/Send/Close, never a bare connection reset.
type Stream struct {
	conn net.Conn
	bw   *bufio.Writer

	window  int
	proto   uint32            // negotiated session protocol version
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

// streamResult is one frame's outcome, in Send order.
type streamResult struct {
	decisions []Decision
	err       error // per-frame rejection (session continues)
}

// streamConfig collects OpenStream options.
type streamConfig struct {
	window     uint32
	paramsHash *uint64
	tracer     *obs.Tracer
	decisions  StreamDecisions
}

// StreamOption configures OpenStream.
type StreamOption func(*streamConfig)

// StreamDecisions selects the decision-frame encoding a session negotiates.
// Every mode yields identical per-event decisions from Recv — the encoding
// only changes the wire bytes carrying them.
type StreamDecisions int

const (
	// StreamDecisionsRLE (the default) negotiates stream proto 3: the
	// server coalesces each decision frame with run-length encoding,
	// falling back to the plain form per frame whenever RLE would not
	// shrink it. The client decodes transparently.
	StreamDecisionsRLE StreamDecisions = iota
	// StreamDecisionsPlain pins the handshake to stream proto 2 — the
	// pre-coalescing protocol, byte-for-byte: every decision frame
	// arrives as a plain 'D' frame.
	StreamDecisionsPlain
	// StreamDecisionsChangeOnly negotiates proto 3 with the change-only
	// session flag: the server sends (index, decision) deltas per frame
	// and the client reconstructs the full vector.
	StreamDecisionsChangeOnly
)

// streamProtoPlainDecisions is the newest protocol version whose decision
// frames are always plain; StreamDecisionsPlain pins the handshake to it.
const streamProtoPlainDecisions = 2

// handshakeProtoFlags maps the requested decision mode onto the handshake's
// protocol version and session flags.
func (sc *streamConfig) handshakeProtoFlags() (proto, flags uint32) {
	switch sc.decisions {
	case StreamDecisionsPlain:
		return streamProtoPlainDecisions, 0
	case StreamDecisionsChangeOnly:
		return trace.StreamProtoVersion, trace.StreamFlagChangeOnly
	default:
		return trace.StreamProtoVersion, 0
	}
}

// WithStreamDecisions selects the session's decision-frame encoding; see the
// StreamDecisions constants. The default is StreamDecisionsRLE.
func WithStreamDecisions(mode StreamDecisions) StreamOption {
	return func(sc *streamConfig) { sc.decisions = mode }
}

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

// WithStreamParams pins the handshake to the given controller-parameter
// hash, overriding the client's WithParamsHash pin and the /v1/info lookup.
func WithStreamParams(h uint64) StreamOption {
	return func(sc *streamConfig) { sc.paramsHash = &h }
}

// WithStreamTracer samples this session's Send calls into t: a sampled frame
// records client_encode and client_network spans and, at stream protocol 2,
// carries its trace ID to the server in the frame's trace context.
func WithStreamTracer(t *obs.Tracer) StreamOption {
	return func(sc *streamConfig) { sc.tracer = t }
}

// OpenStream upgrades a POST /v1/stream request into a streaming ingest
// session for program. The controller-parameter hash for the handshake comes
// from WithStreamParams, else the client's WithParamsHash pin, else a
// GET /v1/info lookup (trust-on-connect). ctx governs the dial and handshake
// only; the returned Stream outlives it.
func (c *Client) OpenStream(ctx context.Context, program string, opts ...StreamOption) (*Stream, error) {
	var sc streamConfig
	for _, opt := range opts {
		opt(&sc)
	}
	hash, err := c.streamParamsHash(ctx, sc)
	if err != nil {
		return nil, err
	}

	u, err := url.Parse(c.base)
	if err != nil {
		return nil, fmt.Errorf("server: stream: parsing base URL: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("server: stream: unsupported scheme %q (http only)", u.Scheme)
	}
	var d net.Dialer
	var conn net.Conn
	if c.unixPath != "" {
		// A unix:// client reaches the same /v1/stream upgrade over the
		// socket file every other request uses.
		conn, err = d.DialContext(ctx, "unix", c.unixPath)
	} else {
		host := u.Host
		if u.Port() == "" {
			host = net.JoinHostPort(u.Hostname(), "80")
		}
		conn, err = d.DialContext(ctx, "tcp", host)
	}
	if err != nil {
		return nil, fmt.Errorf("server: stream: %w", err)
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	// Upgrade request, written by hand: the connection stops speaking HTTP
	// the moment the server answers 101.
	_, err = fmt.Fprintf(bw, "POST /v1/stream HTTP/1.1\r\nHost: %s\r\n"+
		"Upgrade: reactived-stream/1\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n",
		u.Host)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: stream: writing upgrade request: %w", err)
	}
	applyDeadline(ctx, conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: stream: reading upgrade response: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer conn.Close()
		defer resp.Body.Close()
		return nil, httpError("stream", resp)
	}
	if sc.tracer == nil {
		sc.tracer = c.tracer
	}
	proto, flags := sc.handshakeProtoFlags()
	return newStream(ctx, conn, br, bw, trace.Handshake{
		Proto:      proto,
		Flags:      flags,
		ParamsHash: hash,
		Window:     sc.window,
		Program:    program,
	}, sc.tracer)
}

// DialStream opens a streaming session on a raw stream listener, no HTTP
// preamble: either a TCP one (reactived -stream-addr, addr is host:port) or
// a unix-domain one (reactived -stream-unix, addr is "unix:///path/to.sock"
// or "unix:/path/to.sock"). The controller-parameter hash must be supplied
// explicitly — a raw listener has no /v1/info to consult (compute it with
// ParamsHash, or copy it from an Info lookup on the HTTP address).
func DialStream(ctx context.Context, addr, program string, paramsHash uint64, opts ...StreamOption) (*Stream, error) {
	var sc streamConfig
	for _, opt := range opts {
		opt(&sc)
	}
	if sc.paramsHash != nil {
		paramsHash = *sc.paramsHash
	}
	network, target := "tcp", addr
	if path, ok := cutUnixTarget(addr); ok {
		network, target = "unix", path
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, target)
	if err != nil {
		return nil, fmt.Errorf("server: stream: %w", err)
	}
	proto, flags := sc.handshakeProtoFlags()
	return newStream(ctx, conn,
		bufio.NewReaderSize(conn, 1<<16), bufio.NewWriterSize(conn, 1<<16),
		trace.Handshake{
			Proto:      proto,
			Flags:      flags,
			ParamsHash: paramsHash,
			Window:     sc.window,
			Program:    program,
		}, sc.tracer)
}

// cutUnixTarget recognizes a unix-domain target — "unix:///path/to.sock" or
// "unix:/path/to.sock" — and returns the socket path.
func cutUnixTarget(addr string) (path string, ok bool) {
	rest, found := strings.CutPrefix(addr, "unix://")
	if !found {
		rest, found = strings.CutPrefix(addr, "unix:")
	}
	if !found || rest == "" {
		return "", false
	}
	return rest, true
}

// streamParamsHash resolves the handshake hash: explicit option, client pin,
// else a /v1/info lookup.
func (c *Client) streamParamsHash(ctx context.Context, sc streamConfig) (uint64, error) {
	if sc.paramsHash != nil {
		return *sc.paramsHash, nil
	}
	if c.paramsPin != "" {
		return parseParamsHash(c.paramsPin)
	}
	info, err := c.Info(ctx)
	if err != nil {
		return 0, fmt.Errorf("server: stream: resolving params hash: %w", err)
	}
	return parseParamsHash(info.ParamsHash)
}

// applyDeadline projects ctx's deadline (if any) onto conn for the handshake
// phase; newStream clears it once the session is established.
func applyDeadline(ctx context.Context, conn net.Conn) {
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
}

// newStream performs the session handshake on an established connection and
// starts the reader goroutine. It owns conn and closes it on failure.
func newStream(ctx context.Context, conn net.Conn, br *bufio.Reader, bw *bufio.Writer, hs trace.Handshake, tracer *obs.Tracer) (*Stream, error) {
	applyDeadline(ctx, conn)
	_, err := bw.Write(trace.AppendHandshake(nil, hs))
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: stream: writing handshake: %w", err)
	}
	ack, err := trace.ReadAck(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: stream: reading handshake ack: %w", err)
	}
	if ack.Err != nil {
		conn.Close()
		return nil, streamTerminalError(*ack.Err)
	}
	// An older server acks a lower protocol version and the session speaks
	// it (dropping the trace context); anything outside the supported range
	// is a broken peer.
	if ack.Proto < trace.StreamProtoMin || ack.Proto > hs.Proto {
		conn.Close()
		return nil, fmt.Errorf("server: stream: server acked protocol %d, client supports %d..%d",
			ack.Proto, trace.StreamProtoMin, hs.Proto)
	}
	// The server may grant fewer flags than requested (or none, below proto
	// 3) — never more.
	if ack.Flags&^hs.Flags != 0 {
		conn.Close()
		return nil, fmt.Errorf("server: stream: server granted unrequested session flags %#x", ack.Flags&^hs.Flags)
	}
	if ack.Window == 0 {
		conn.Close()
		return nil, fmt.Errorf("server: stream: server granted a zero window")
	}
	conn.SetDeadline(time.Time{})

	st := &Stream{
		conn:       conn,
		bw:         bw,
		window:     int(ack.Window),
		proto:      ack.Proto,
		program:    hs.Program,
		tracer:     tracer,
		credits:    make(chan struct{}, ack.Window),
		results:    make(chan streamResult, ack.Window),
		readerDone: make(chan struct{}),
	}
	for i := 0; i < st.window; i++ {
		st.credits <- struct{}{}
	}
	go st.readLoop(br)
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
		case trace.StreamFrameDecisionsRLE, trace.StreamFrameDecisionsChanges:
			// Coalesced forms decode to exactly the bytes a plain 'D'
			// frame would have carried; Recv callers never see the
			// difference.
			if typ == trace.StreamFrameDecisionsRLE {
				decScratch, err = trace.DecodeDecisionsRLE(payload, decScratch[:0])
			} else {
				decScratch, err = trace.DecodeDecisionsChanges(payload, decScratch[:0])
			}
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

// Send ships one batch of events as a single in-flight frame. It blocks
// while the window is exhausted, until the receiver frees a slot, ctx ends,
// or the session terminates. Each successful Send owes exactly one Recv.
//
// Send is the kind=branch compatibility surface — its wire bytes are
// identical at every protocol version; kind-aware callers use SendKind.
func (st *Stream) Send(ctx context.Context, events []trace.Event) error {
	return st.send(ctx, trace.KindBranch, events, nil, len(events))
}

// SendKind is Send with an explicit speculation kind. kind=branch is Send
// exactly (and works at every negotiated protocol version); other kinds
// require the session to have negotiated stream protocol 4 — against an
// older server SendKind fails without consuming a window credit.
func (st *Stream) SendKind(ctx context.Context, kind trace.Kind, events []trace.Event) error {
	return st.send(ctx, kind, events, nil, len(events))
}

// SendEncoded ships one pre-encoded event frame — the exact bytes
// trace.EncodeFrameAppend produces for a batch — without re-encoding. It is
// the client-side mirror of the server's zero-copy ingest: callers that
// already hold wire frames (benchmark drivers isolating transport cost, WAL
// replayers) skip the per-event encode entirely. nevents must be the
// frame's event count; it feeds span metadata only. Blocking and credit
// semantics are identical to Send.
func (st *Stream) SendEncoded(ctx context.Context, frame []byte, nevents int) error {
	return st.send(ctx, trace.KindBranch, nil, frame, nevents)
}

// SendEncodedKind is SendEncoded with an explicit speculation kind, under
// SendKind's protocol rules.
func (st *Stream) SendEncodedKind(ctx context.Context, kind trace.Kind, frame []byte, nevents int) error {
	return st.send(ctx, kind, nil, frame, nevents)
}

func (st *Stream) send(ctx context.Context, kind trace.Kind, events []trace.Event, frame []byte, nevents int) error {
	if kind != trace.KindBranch && st.proto < 4 {
		return fmt.Errorf("server: stream: kind %s needs stream protocol 4, session negotiated %d (%w)",
			kind, st.proto, ErrUnsupportedKind)
	}
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
	// Sampling happens per frame; at proto 2 every event payload leads with
	// a trace context (zero = untraced) so the wire shape is uniform.
	var traceID uint64
	if st.proto >= 2 {
		traceID = st.tracer.SampleBatch()
	}
	encodeStart := time.Now()
	// The session frame carries its own length, so the payload is the bare
	// trace frame (no AppendFrame length prefix).
	st.evBuf = st.evBuf[:0]
	if st.proto >= 2 {
		st.evBuf = trace.AppendTraceContext(st.evBuf, traceID)
	}
	if st.proto >= 4 {
		// The kind tag is unconditional at proto 4 so the wire shape stays
		// uniform; branch encodes as a single zero byte.
		st.evBuf = trace.AppendKind(st.evBuf, kind)
	}
	if frame != nil {
		st.evBuf = append(st.evBuf, frame...)
	} else {
		st.evBuf = trace.EncodeFrameAppend(st.evBuf, events)
	}
	st.sendBuf = trace.AppendSessionFrame(st.sendBuf[:0], trace.StreamFrameEvents, st.evBuf)
	netStart := time.Now()
	_, err := st.bw.Write(st.sendBuf)
	if err == nil {
		err = st.bw.Flush()
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

// Recv returns the next frame's outcome, in Send order: the per-event
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
// in turn returns window credits and unblocks any Send stuck waiting for
// one (it then fails with a send-after-Close error).
func (st *Stream) Close() error {
	st.sendMu.Lock()
	if !st.closed {
		st.closed = true
		frame := trace.AppendSessionFrame(nil, trace.StreamFrameClose, nil)
		if _, err := st.bw.Write(frame); err == nil {
			st.bw.Flush()
		}
	}
	st.sendMu.Unlock()
	for range st.results {
	}
	err := st.terminalErr()
	st.conn.Close()
	if err == io.EOF {
		return nil
	}
	return err
}
