package server

import (
	"fmt"
	"net/http"
	"time"

	"reactivespec/internal/trace"
)

// Replica mode: a server started with Config.Replica set rejects every client
// write (POST ingest and stream sessions answer with the read_only code) and
// advances state only through ApplyReplicated — records a replication
// follower received from a primary's WAL. Each replicated record runs the
// same log-before-apply path as primary ingest, so the replica's own WAL and
// snapshots stay exactly as trustworthy as a primary's, and promotion is just
// "stop following, go writable": seal the follower (SetSealFunc), flip the
// read-only bit, and the daemon serves ingest with cursors, table state, and
// WAL numbering continuing the primary's sequence.

// ReadOnly reports whether the server is currently rejecting client writes
// (replica mode, before promotion).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Mode names the server's role: "replica" while read-only, "primary" once
// writable.
func (s *Server) Mode() string {
	if s.readOnly.Load() {
		return "replica"
	}
	return "primary"
}

// SetSealFunc installs the hook Promote calls to stop replication before the
// server goes writable. The hook must block until no further ApplyReplicated
// call can arrive and return the last applied WAL sequence (the follower's
// Seal method does exactly this).
func (s *Server) SetSealFunc(f func() (uint64, error)) {
	s.promoteMu.Lock()
	s.sealFn = f
	s.promoteMu.Unlock()
}

// PromoteResult is the JSON answer of POST /v1/promote.
type PromoteResult struct {
	// Mode is the post-promotion role, always "primary".
	Mode string `json:"mode"`
	// LastAppliedSeq is the WAL sequence the sealed follower stopped at: the
	// first sequence the promoted daemon will assign to fresh ingest.
	LastAppliedSeq uint64 `json:"last_applied_seq"`
}

// Promote seals replication and makes the replica writable. It is the one-way
// door of failover: the follower is stopped first (no replicated record can
// land after the flip), then the read-only bit clears and client ingest
// proceeds from the replicated state. A second Promote — or a Promote on a
// daemon that never was a replica — fails with ErrNotReplica.
func (s *Server) Promote() (PromoteResult, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		return PromoteResult{}, ErrNotReplica
	}
	start := time.Now()
	var last uint64
	if s.sealFn != nil {
		var err error
		if last, err = s.sealFn(); err != nil {
			return PromoteResult{}, fmt.Errorf("server: sealing replication: %w", err)
		}
	}
	s.readOnly.Store(false)
	s.ins.promotions.Inc()
	// Promotion is rare and operationally interesting: record it whenever a
	// tracer is attached, without burning a sampling slot.
	s.cfg.Trace.RecordInfra("promote", start, time.Since(start))
	s.logf("replica: promoted to primary at wal seq %d", last)
	return PromoteResult{Mode: "primary", LastAppliedSeq: last}, nil
}

// ApplyReplicated applies one record shipped from the primary's WAL: frame
// is the record's trace frame payload exactly as the primary logged it, not
// yet decoded. It decodes the frame once and runs the same commit step as
// primary ingest — log the frame verbatim, then train the table, under the
// same locks — so the replica's log holds the primary's record bytes,
// snapshots taken on the replica carry exact WAL anchors, and replay after a
// replica crash reproduces the same decisions. A frame that does not decode
// is refused before it reaches the log or the table. Callers (the
// replication follower) deliver records in WAL-sequence order; the
// per-program cursor lock preserves that order against the table. traceID,
// when non-zero, is the trace the record's originating batch was sampled
// into on the primary; the replica closes the cross-node chain with a
// follower_apply span under it. It returns the record's event count.
func (s *Server) ApplyReplicated(program string, frame []byte, traceID uint64) (int, error) {
	if !s.readOnly.Load() {
		return 0, ErrNotReplica
	}
	start := time.Now()
	// The pooled ingest scratch holds the decoded events and the decisions
	// the replica discards, so neither allocates per record.
	sc := ingestScratchPool.Get().(*ingestScratch)
	defer putIngestScratch(sc)
	events, err := trace.DecodeFrameAppend(frame, sc.events[:0])
	if err != nil {
		return 0, fmt.Errorf("server: replicated record: %w", err)
	}
	sc.events = events
	n := len(events)
	frames := [1]frameSpan{{pend: len(frame), events: n}}
	var seq uint64
	sc.decisions, seq, err = s.commit(s.cfg.WAL, program, s.cursorFor(program), frame, events, frames[:],
		traceID, nil, sc.decisions[:0])
	if err != nil {
		return 0, fmt.Errorf("server: replica wal append: %w", err)
	}
	s.ins.replicatedRecords.Inc()
	s.ins.replicatedEvents.Add(uint64(n))
	s.cfg.Trace.RecordStage(traceID, 0, "follower_apply", program, n, seq, start, time.Since(start))
	return n, nil
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	res, err := s.Promote()
	if err == ErrNotReplica {
		writeError(w, http.StatusConflict, CodeNotReplica,
			"not a replica (already promoted, or never one)")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, res)
}

// CursorResponse is the JSON answer of GET /v1/cursor: one (program, kind)
// stream's ingest position. Failover clients read Events off a freshly
// promoted replica to learn how many of their events survived, and resume
// sending from there.
type CursorResponse struct {
	Program string `json:"program"`
	// Instr is the cumulative dynamic instruction count.
	Instr uint64 `json:"instr"`
	// Events is the number of events applied for the program and kind.
	Events uint64 `json:"events"`
}

// handleCursor serves GET /v1/cursor?program=P[&kind=K].
func (s *Server) handleCursor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	program, kind, ok := s.parseQuery(w, r.URL.Query())
	if !ok {
		return
	}
	resp := CursorResponse{Program: program}
	s.cursorsMu.Lock()
	c := s.cursors[trace.EncodeKindProgram(kind, program)]
	s.cursorsMu.Unlock()
	if c != nil {
		c.mu.Lock()
		resp.Instr, resp.Events = c.instr, c.events
		c.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, resp)
}
