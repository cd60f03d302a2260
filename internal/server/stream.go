package server

import (
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"time"

	"reactivespec/internal/session"
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
// through the same commit step (log, then apply, under the same
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
)

// ActiveStreams reports how many streaming sessions are currently live.
func (s *Server) ActiveStreams() int { return s.streams.Live() }

// WaitStreams blocks until every streaming session has closed or ctx
// expires. Call it after BeginDrain during shutdown, alongside
// http.Server.Shutdown.
func (s *Server) WaitStreams(ctx context.Context) error {
	if err := s.streams.Wait(ctx); err != nil {
		return fmt.Errorf("server: stream: %w", err)
	}
	return nil
}

// ServeStream accepts raw TCP streaming sessions on ln until the listener
// closes (reactived -stream-addr). Each connection speaks the session
// protocol immediately — no HTTP preamble.
func (s *Server) ServeStream(ln net.Listener) error {
	return s.streams.Serve(ln, s.serveStreamConn)
}

// serveStreamConn runs one streaming session to completion: handshake,
// event/decision frame loop, terminal frame.
func (s *Server) serveStreamConn(c *session.Conn) {
	hs, err := trace.ReadHandshake(c.R)
	if err != nil {
		// The peer never presented a coherent handshake; there is no
		// protocol to answer in.
		return
	}
	reject := func(code, msg string) {
		c.Reject(trace.AppendAck(nil, trace.Ack{Err: &trace.StreamError{Code: code, Msg: msg}}))
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
	case !c.Establish():
		reject(trace.StreamCodeDraining, "draining")
		return
	}
	s.ins.streamSessions.Inc()

	window := session.Window(hs.Window, DefaultStreamWindow, MaxStreamWindow)
	ack := trace.AppendAck(nil, trace.Ack{
		Proto: trace.StreamProtoVersion, Window: window, ParamsHash: s.paramsHash,
	})
	if c.Send(ack) != nil || c.W.Flush() != nil {
		return
	}

	// The frame loop runs inside a pprof-labeled region so profiles split
	// stream ingest work by program and role.
	pprof.Do(context.Background(), pprof.Labels(
		"program", hs.Program, "transport", "stream", "role", s.Mode(),
	), func(context.Context) {
		s.streamFrameLoop(c, hs.Program)
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
// Each frame is walked once: ReadSessionFrame hands back a payload aliasing
// the connection read buffer, trace.DecodeFrameAppend decodes it into the
// session's event scratch, and commit logs the payload bytes verbatim and
// applies the decoded events. Steady state allocates nothing per frame, and
// the payload is fully consumed before the next read invalidates it. Each
// applied frame is one batch on the ingest histograms and spans, timed by
// the same stage clock as a POST batch.
//
// The session ends with a terminal frame; the client surfaces its code
// (ErrDraining for "draining", io.EOF for "bye") instead of a bare
// connection reset.
func (s *Server) streamFrameLoop(c *session.Conn, program string) {
	br, bw := c.R, c.W
	// Session-local scratch, reused across frames: the steady-state loop
	// allocates nothing. The cursor and table key are per (program, kind);
	// both are resolved lazily per kind and cached for the session, so a
	// branch-only session pays for exactly one cursor lookup.
	var (
		wireBuf        []byte
		payloadScratch []byte
		events         []trace.Event
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
			if c.Draining() {
				c.Terminal(trace.StreamCodeDraining, "server draining; session closed after the current frame")
				return
			}
			// io.EOF without a close frame, or damaged framing: the
			// connection is unusable either way; say why if we can.
			c.Terminal(trace.StreamCodeBadFrame, fmt.Sprintf("reading session frame: %v", err))
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
			if err == nil {
				events, err = trace.DecodeFrameAppend(body, events[:0])
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
				if c.Send(wireBuf) != nil {
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
				frame := [1]frameSpan{{pend: len(body), events: len(events)}}
				var seq uint64
				decisions, seq, err = s.commit(s.cfg.WAL, key, cur, body, events, frame[:], traceID, &clk, decisions[:0])
				if err != nil {
					// The frame was not applied; end the session with a
					// typed server-side error rather than acknowledging
					// events that were never durably logged.
					c.Terminal(trace.StreamCodeInternal, "wal append: "+err.Error())
					return
				}
				wireBuf, decScratch = trace.AppendDecisionsFrame(wireBuf[:0], decisions, decScratch)
				if c.Send(wireBuf) != nil {
					return
				}
				clk.lap(stageRespond)
				s.finishBatch(&clk, traceID, program, len(events), seq)
			}
			// Like the pooled ingest scratch, the session keeps each
			// buffer only up to maxPooledEvents events or maxPooledBytes
			// bytes: one huge frame must not pin its size for the rest of
			// a long-lived session.
			if cap(events) > maxPooledEvents {
				events = nil
			}
			if cap(decisions) > maxPooledEvents {
				decisions = nil
			}
			if cap(payloadScratch) > maxPooledBytes {
				payloadScratch = nil
			}
			if cap(wireBuf) > maxPooledBytes {
				wireBuf = nil
			}
			if cap(decScratch) > maxPooledBytes {
				decScratch = nil
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
			c.Terminal(trace.StreamCodeBye, "")
			return
		default:
			c.Terminal(trace.StreamCodeBadFrame, fmt.Sprintf("unexpected session frame type %q", typ))
			return
		}
	}
}
