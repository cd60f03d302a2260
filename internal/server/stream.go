package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/trace"
)

// Streaming ingest sessions: instead of one HTTP POST per batch, a client
// performs one handshake and then pipelines event frames over a long-lived
// connection, receiving decision frames back on the same connection
// (internal/trace stream.go defines the wire format). Sessions arrive on a
// dedicated raw TCP listener (reactived -stream-addr), where the session
// protocol starts immediately after connect.
//
// Decisions are byte-identical to the /v1/ingest path: both run each frame
// through the same commit step (log, then ApplyFrame, under the same
// per-program cursor lock), so a program's event order, and therefore its
// decision sequence, is independent of the transport
// (TestStreamMatchesIngest pins this).
//
// Backpressure is window-based: the handshake ack advertises how many event
// frames may be in flight, each decision (or reject) frame implicitly
// returns one credit, and the client blocks sending when the window is
// exhausted. The server answers frames strictly in order.
//
// Lifecycle: BeginDrain asks every session to finish its current frame,
// write a terminal "draining" frame, and close — the client observes a typed
// ErrDraining, never a bare connection reset. Snapshots interleave freely
// with active sessions: the cursor and shard locks are only held per frame,
// so SnapshotNow sees a per-entry-consistent state exactly as it does under
// POST ingest.

const (
	// DefaultStreamWindow is the pipeline window granted when the
	// handshake does not request one.
	DefaultStreamWindow = 32
	// MaxStreamWindow caps the grantable window.
	MaxStreamWindow = 1024
	// streamHandshakeTimeout bounds how long a new connection may take to
	// present its handshake before the server hangs up.
	streamHandshakeTimeout = 10 * time.Second
	// streamWriteTimeout bounds every server-side frame write so a stalled
	// client cannot pin a session goroutine (or block drain) forever.
	streamWriteTimeout = 30 * time.Second
)

// streamSession is one live streaming connection's server-side handle; the
// registry uses it to nudge the session during drain.
type streamSession struct {
	conn     net.Conn
	draining atomic.Bool
}

// nudge asks the session to stop: the read deadline wakes a blocked frame
// read, whose error path then sees the draining flag.
func (ss *streamSession) nudge() {
	ss.draining.Store(true)
	ss.conn.SetReadDeadline(time.Now())
}

// streamRegistry tracks live sessions so BeginDrain can reach them.
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[*streamSession]struct{}
	draining bool
}

// add registers a session; it fails when the registry is already draining
// (the caller answers with a terminal frame instead of serving).
func (r *streamRegistry) add(ss *streamSession) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return false
	}
	r.sessions[ss] = struct{}{}
	return true
}

func (r *streamRegistry) remove(ss *streamSession) {
	r.mu.Lock()
	delete(r.sessions, ss)
	r.mu.Unlock()
}

func (r *streamRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// drainAll marks the registry draining and nudges every live session.
func (r *streamRegistry) drainAll() {
	r.mu.Lock()
	r.draining = true
	for ss := range r.sessions {
		ss.nudge()
	}
	r.mu.Unlock()
}

// ActiveStreams reports how many streaming sessions are currently live.
func (s *Server) ActiveStreams() int { return s.streams.count() }

// WaitStreams blocks until every streaming session has closed or ctx
// expires. Call it after BeginDrain during shutdown, alongside
// http.Server.Shutdown.
func (s *Server) WaitStreams(ctx context.Context) error {
	for s.streams.count() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: %d stream sessions still open: %w",
				s.streams.count(), ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// ServeStream accepts raw TCP streaming sessions on ln until the listener
// closes (reactived -stream-addr). Each connection speaks the session
// protocol immediately — no HTTP preamble.
func (s *Server) ServeStream(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveStreamConn(conn)
	}
}

// serveStreamConn runs one streaming session to completion: handshake,
// event/decision frame loop, terminal frame. It owns conn and closes it.
func (s *Server) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	// A write shared by every outbound frame: bounded by a write deadline
	// so a stalled client cannot pin the goroutine.
	var wireBuf []byte
	writeWire := func(b []byte) error {
		conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		if _, err := bw.Write(b); err != nil {
			return err
		}
		return nil
	}

	// Handshake, under its own deadline.
	conn.SetReadDeadline(time.Now().Add(streamHandshakeTimeout))
	hs, err := trace.ReadHandshake(br)
	if err != nil {
		// The peer never presented a coherent handshake; there is no
		// protocol to answer in.
		return
	}
	reject := func(code, msg string) {
		wireBuf = trace.AppendAck(wireBuf[:0], trace.Ack{Err: &trace.StreamError{Code: code, Msg: msg}})
		if writeWire(wireBuf) == nil {
			bw.Flush()
		}
	}
	switch {
	case hs.Proto != trace.StreamProtoVersion:
		reject(trace.StreamCodeProtoMismatch, fmt.Sprintf(
			"client speaks stream protocol %d, server speaks %d",
			hs.Proto, trace.StreamProtoVersion))
		return
	case hs.Program == "":
		reject(trace.StreamCodeMalformed, "missing program name")
		return
	case !trace.ValidProgramName(hs.Program):
		reject(trace.StreamCodeMalformed, "program name contains a NUL byte")
		return
	case hs.ParamsHash != s.paramsHash:
		reject(trace.StreamCodeParamMismatch, fmt.Sprintf(
			"client controller params hash %s != server %s",
			formatParamsHash(hs.ParamsHash), formatParamsHash(s.paramsHash)))
		return
	case s.readOnly.Load():
		reject(trace.StreamCodeReadOnly,
			"replica is read-only; ingest on the primary, or promote this replica first")
		return
	}
	window := hs.Window
	if window == 0 {
		window = DefaultStreamWindow
	}
	if window > MaxStreamWindow {
		window = MaxStreamWindow
	}

	ss := &streamSession{conn: conn}
	if !s.streams.add(ss) {
		reject(trace.StreamCodeDraining, "draining")
		return
	}
	defer s.streams.remove(ss)
	s.ins.streamSessions.Inc()

	wireBuf = trace.AppendAck(wireBuf[:0], trace.Ack{
		Proto: trace.StreamProtoVersion, Window: window, ParamsHash: s.paramsHash,
	})
	if writeWire(wireBuf) != nil || bw.Flush() != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	// The frame loop runs inside a pprof-labeled region so profiles split
	// stream ingest work by program and role.
	pprof.Do(context.Background(), pprof.Labels(
		"program", hs.Program, "transport", "stream", "role", s.Mode(),
	), func(context.Context) {
		s.streamFrameLoop(conn, br, bw, ss, hs.Program, writeWire)
	})
}

// streamFrameLoop runs one established session's event/decision loop to
// completion: event frames in, decision (or reject) frames out, terminal
// frame last. Every event frame payload starts with a trace context and a
// speculation-kind tag; the kind routes the frame to its own (program, kind)
// cursor and table key. A frame tagged with a kind the
// daemon does not serve is rejected per-frame ('R'), like a corrupt payload:
// the session survives, and the other kinds' frames keep applying.
//
// The read path is zero-copy at the byte level: ReadSessionFrame hands back a payload aliasing the connection read buffer, the frame is
// validated in place (trace.ValidateFrame), and commit splices the
// validated bytes into the WAL verbatim and applies them with
// Table.ApplyFrame. Steady state allocates nothing per frame, and the
// payload is fully consumed before the next read invalidates it. Each
// applied frame is one batch on the ingest histograms and spans, timed by
// the same stage clock as a POST batch.
func (s *Server) streamFrameLoop(conn net.Conn, br *bufio.Reader, bw *bufio.Writer,
	ss *streamSession, program string, writeWire func([]byte) error) {
	// terminal ends the session with a typed frame; the client surfaces
	// the code (ErrDraining for "draining", io.EOF for "bye") instead of a
	// bare connection reset.
	var wireBuf []byte
	terminal := func(code, msg string) {
		wireBuf = trace.AppendSessionFrame(wireBuf[:0], trace.StreamFrameTerminal,
			trace.AppendStreamError(nil, trace.StreamError{Code: code, Msg: msg}))
		if writeWire(wireBuf) == nil {
			bw.Flush()
		}
	}

	// Session-local scratch, reused across frames: the steady-state loop
	// allocates nothing. The cursor and table key are per (program, kind);
	// both are resolved lazily per kind and cached for the session, so a
	// branch-only session pays for exactly one cursor lookup.
	var (
		payloadScratch []byte
		decisions      []byte
		decScratch     []byte
		payload        []byte
		err            error
		keys           [trace.KindCount]string
		curs           [trace.KindCount]*cursor
	)
	keys[trace.KindBranch] = program
	curs[trace.KindBranch] = s.cursorFor(program)
	for {
		var typ byte
		typ, payload, payloadScratch, err = trace.ReadSessionFrame(br, payloadScratch)
		if err != nil {
			if ss.draining.Load() {
				conn.SetReadDeadline(time.Time{})
				terminal(trace.StreamCodeDraining, "server draining; session closed after the current frame")
				return
			}
			// io.EOF without a close frame, or damaged framing: the
			// connection is unusable either way; say why if we can.
			terminal(trace.StreamCodeBadFrame, fmt.Sprintf("reading session frame: %v", err))
			return
		}
		switch typ {
		case trace.StreamFrameEvents:
			s.ins.streamFrames.Inc()
			clk := stageClock{start: time.Now()}
			// The payload leads with a trace context — a non-zero ID joins
			// the frame to the client's trace, zero means untraced and the
			// server's own sampler gets its say — then a kind tag.
			var (
				traceID uint64
				kind    trace.Kind
				body    []byte
			)
			traceID, body, err = trace.CutTraceContext(payload)
			if err == nil {
				kind, body, err = trace.CutKind(body)
				if err == nil && (!kind.Valid() || !s.kinds[kind]) {
					err = fmt.Errorf("kind %s is not served by this daemon", kind)
				}
			}
			if err == nil && traceID == 0 {
				traceID = s.cfg.Trace.SampleBatch()
			}
			var nEvents int
			if err == nil {
				nEvents, err = trace.ValidateFrame(body)
			}
			clk.lap(stageDecode)
			if err != nil {
				// The session framing is intact — reject this frame
				// alone and keep the session, mirroring the POST
				// path's per-frame rejection.
				s.ins.rejectedFrames.Inc()
				wireBuf = trace.AppendSessionFrame(wireBuf[:0], trace.StreamFrameReject,
					[]byte(err.Error()))
				err = nil
				if writeWire(wireBuf) != nil {
					return
				}
			} else {
				key := keys[kind]
				cur := curs[kind]
				if cur == nil {
					key = trace.EncodeKindProgram(kind, program)
					cur = s.cursorFor(key)
					keys[kind], curs[kind] = key, cur
				}
				frame := [1]frameSpan{{pend: len(body), events: nEvents}}
				var seq uint64
				decisions, seq, err = s.commit(s.cfg.WAL, key, cur, body, frame[:], traceID, &clk, decisions[:0])
				if err != nil {
					// The frame was not applied; end the session with a
					// typed server-side error rather than acknowledging
					// events that were never durably logged.
					terminal(trace.StreamCodeInternal, "wal append: "+err.Error())
					return
				}
				wireBuf, decScratch = appendDecisionsFrameRLE(wireBuf[:0], decisions, decScratch)
				if writeWire(wireBuf) != nil {
					return
				}
				clk.lap(stageRespond)
				s.finishBatch(&clk, traceID, program, nEvents, seq)
			}
			// Flush only when no further frame is already buffered: a
			// pipelining client keeps the session busy, and its credits
			// come back in one flush when the server catches up.
			if br.Buffered() == 0 {
				if bw.Flush() != nil {
					return
				}
			}
		case trace.StreamFrameClose:
			terminal(trace.StreamCodeBye, "")
			return
		default:
			terminal(trace.StreamCodeBadFrame, fmt.Sprintf("unexpected session frame type %q", typ))
			return
		}
	}
}

// appendDecisionsFrame appends one 'D' session frame carrying the decision
// bytes (count uvarint + one byte per event) to dst. The header is built in
// place — the payload length is computable without staging the payload — so
// the hot respond path allocates nothing.
func appendDecisionsFrame(dst, decisions []byte) []byte {
	dst = append(dst, trace.StreamFrameDecisions)
	countLen := uvarintLen(uint64(len(decisions)))
	dst = appendUvarint(dst, uint64(countLen+len(decisions)))
	dst = appendUvarint(dst, uint64(len(decisions)))
	return append(dst, decisions...)
}

// appendDecisionsFrameRLE appends the session frame answering one applied
// event frame: run-length 'd', falling back to the plain 'D' frame whenever
// run-length encoding does not strictly shrink the payload, so the wire cost
// is bounded by the plain encoding. scratch stages the candidate payload and
// is returned for reuse.
func appendDecisionsFrameRLE(dst, decisions, scratch []byte) (wire, newScratch []byte) {
	scratch = trace.AppendDecisionsRLE(scratch[:0], decisions)
	if len(scratch) >= uvarintLen(uint64(len(decisions)))+len(decisions) {
		return appendDecisionsFrame(dst, decisions), scratch
	}
	return trace.AppendSessionFrame(dst, trace.StreamFrameDecisionsRLE, scratch), scratch
}

// uvarintLen returns how many bytes v's uvarint encoding takes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendUvarint appends v's uvarint encoding to dst.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
