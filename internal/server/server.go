package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/obs"
	"reactivespec/internal/session"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
)

// HTTP API:
//
// Every endpoint that names a program shares one query vocabulary, parsed
// and checked in one place (parseQuery):
//
//	program=P   required; a name containing a NUL byte is rejected (NUL
//	            introduces the internal kind-key encoding,
//	            trace.EncodeKindProgram)
//	kind=K      optional speculation kind (trace.ParseKind); absent means
//	            branch. An unknown name, or a kind the daemon is not serving
//	            (Config.Kinds), is rejected with unsupported_kind (400).
//	policy=L    optional policy pin: an unregistered name is rejected with
//	            unknown_policy (400), a registered-but-different one with
//	            param_mismatch (409).
//
// A kind=branch table key and cursor are the plain program name, so a
// request that names kind=branch and one that omits kind address the same
// state, byte for byte.
//
//	POST /v1/ingest?program=P[&kind=K][&policy=L][&params=H]
//	  Body: one or more trace frames (trace.WriteFrame). Events are applied
//	  in order; the per-(program, kind) instruction cursor advances by each
//	  event's gap. A corrupt frame is rejected and skipped — the rest of the
//	  batch still applies (per-batch corruption handling, not
//	  per-connection).
//	  Response (application/octet-stream, Content-Length always set):
//	    magic  "RSPD" [4]byte
//	    frames uvarint
//	    per frame:
//	      status byte      0 = applied, 1 = rejected
//	      applied:  n uvarint, then n decision bytes (Decision.Encode)
//	      rejected: len uvarint, then len bytes of error text
//	    optionally, after the last frame record:
//	      status byte 2    = batch truncated: len uvarint, then len bytes
//	                         of error text
//	  Partial-apply contract: when the framing itself is damaged mid-body
//	  (a corrupt length prefix, a truncated payload), every frame decoded
//	  before that point has already been applied to the table and is
//	  answered normally; the response then carries a trailing truncation
//	  record (status 2) instead of discarding the applied prefix, and the
//	  rest of the body is ignored. Clients see "applied N of M frames" plus
//	  the framing diagnostic (server.BatchTruncatedError).
//	  Concurrent batches for the same program and kind serialize (the cursor
//	  defines the event order); everything else proceeds in parallel. The
//	  body is fully read and decoded *before* the cursor is taken, so a slow
//	  client cannot stall other ingesters for its program.
//	  The optional params=<hex hash> query pins the request to a controller
//	  parameter hash (see ParamsPolicyHash); a mismatch is rejected with 409
//	  before any event is applied.
//	POST /v2/ingest                      → the same handler as /v1/ingest
//	  (an alias kept for perfbench/traced.go, which posts non-branch kinds
//	  there).
//
//	GET  /v1/decide?program=P[&kind=K][&policy=L]&id=N → JSON DecideResponse
//	GET  /v1/cursor?program=P[&kind=K][&policy=L]      → JSON CursorResponse
//	GET  /v1/info                        → JSON Info (API/proto version, params hash)
//	GET  /healthz                        → JSON health summary
//	GET  /metrics                        → Prometheus text exposition
//	POST /v1/snapshot                    → force a snapshot, JSON result
//	POST /v1/promote                     → promote a replica, JSON PromoteResult
//
// Every failure path answers with the unified JSON error envelope
// {"error": ..., "code": ...} defined in errors.go.

// Ingest response per-frame status bytes.
const (
	ingestApplied   = 0 // frame applied; decision bytes follow
	ingestRejected  = 1 // frame payload corrupt; error text follows
	ingestTruncated = 2 // batch framing lost after the preceding frames
)

// respMagic introduces an ingest response.
var respMagic = [4]byte{'R', 'S', 'P', 'D'}

// TraceHeader is the optional POST /v1/ingest request header carrying a
// client-minted trace ID (decimal). A batch arriving with it joins that trace
// instead of rolling the server's sampler, so client-side encode/network
// spans and the server's batch spans line up under one ID.
const TraceHeader = "X-Reactive-Trace"

// Config configures a Server.
type Config struct {
	// Params are the reactive-controller parameters every table entry is
	// created with.
	Params core.Params
	// Policy is the registered policy name every table entry runs ("" =
	// core.PolicyReactive). The policy is mixed into the params hash
	// (ParamsPolicyHash), so clients pinned to one policy's decisions are
	// rejected by a daemon running another. The name must be registered
	// (core.ValidPolicy): New panics on an unknown one — the daemon binary
	// validates its -policy flag before constructing the server.
	Policy string
	// Kinds lists the speculation kinds this daemon serves; nil or empty
	// means all of them. Ingest and decide requests for an unserved kind are
	// rejected with the unsupported_kind code.
	Kinds []trace.Kind
	// Shards is the lock-stripe count (default 16).
	Shards int
	// SnapshotDir, when non-empty, enables snapshot/restore.
	SnapshotDir string
	// WAL, when non-nil, is the write-ahead event log: every ingested frame
	// (POST and streaming) is appended to it *before* it is applied to the
	// table, and Recover replays its tail over the restored snapshot. The
	// log must be opened with ParamsPolicyHash(Params, Policy), the hash the
	// server pins and replication followers are checked against: New panics
	// on a log opened with any other.
	WAL *wal.Log
	// Replica starts the server read-only: client ingest (POST and stream)
	// is rejected with the read_only code, and state advances only through
	// ApplyReplicated — records shipped from a primary's WAL. Promote flips
	// the server writable. Replica mode requires a WAL: the replica logs
	// shipped records through the same log-before-apply path as a primary,
	// so after promotion its durability story is identical.
	Replica bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Trace, when non-nil, records sampled end-to-end batch spans (obs.Tracer).
	// A nil tracer is the off switch: every call site nil-checks and pays one
	// predictable branch.
	Trace *obs.Tracer
}

// Server is the speculation-control service. Create with New, expose via
// Handler, and drive shutdown with BeginDrain + (optionally) SnapshotNow.
type Server struct {
	cfg        Config
	table      *Table
	start      time.Time
	paramsHash uint64
	// kinds is the served-kind mask, indexed by trace.Kind.
	kinds [trace.KindCount]bool

	cursorsMu sync.Mutex
	cursors   map[string]*cursor

	reg *obs.Registry
	ins serverInstruments

	streams session.Server

	draining atomic.Bool
	snapMu   sync.Mutex // serializes snapshot writes

	// readOnly is set while the server runs as a replica; Promote clears
	// it. Checked on every ingest path before any event is accepted.
	readOnly atomic.Bool
	// promoteMu serializes Promote against itself; sealFn (installed by the
	// replication follower via SetSealFunc) stops the follower and returns
	// the last applied sequence before the server goes writable.
	promoteMu sync.Mutex
	sealFn    func() (uint64, error)
	// applyMu fences WAL-append-plus-apply sections (read side) against
	// snapshot capture (write side): a snapshot's WAL anchor is taken while
	// no batch is between its WAL append and its table apply, so every
	// record below the anchor is fully applied and none above it is. Lock
	// order: applyMu before cursorsMu before cursor.mu.
	applyMu sync.RWMutex
	// restoredWALSeq is the WAL anchor of the snapshot RestoreFromDisk
	// loaded (0 when none): the sequence number replay resumes from.
	restoredWALSeq uint64
}

// cursor is one program's ingest position: the cumulative dynamic
// instruction count and the number of events applied. Holding mu across a
// whole batch serializes same-program batches, preserving the event order the
// controller's latency model needs. The event count is what failover clients
// resume from: after promoting a replica, /v1/cursor tells them exactly how
// many of their events survived, so they re-send from there and nothing is
// double-applied.
type cursor struct {
	mu     sync.Mutex
	instr  uint64
	events uint64
}

// New returns a server with an empty table.
func New(cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 16
	}
	table, err := NewTablePolicy(cfg.Params, cfg.Shards, cfg.Policy)
	if err != nil {
		// Config.Policy documents the contract: validate the name before
		// constructing a server.
		panic("server: " + err.Error())
	}
	hash := ParamsPolicyHash(cfg.Params, cfg.Policy)
	if cfg.WAL != nil && cfg.WAL.ParamsHash() != hash {
		panic(fmt.Sprintf("server: WAL opened with params hash %016x, want ParamsPolicyHash(Params, Policy) = %016x",
			cfg.WAL.ParamsHash(), hash))
	}
	s := &Server{
		cfg:        cfg,
		table:      table,
		start:      time.Now(),
		paramsHash: hash,
		cursors:    make(map[string]*cursor),
		reg:        obs.NewRegistry(),
	}
	if len(cfg.Kinds) == 0 {
		for k := range s.kinds {
			s.kinds[k] = true
		}
	} else {
		for _, k := range cfg.Kinds {
			if !k.Valid() {
				panic(fmt.Sprintf("server: invalid kind %d in Config.Kinds", k))
			}
			s.kinds[k] = true
		}
	}
	s.readOnly.Store(cfg.Replica)
	s.ins = newServerInstruments(s.reg)
	registerTableCollector(s.reg, s.table)
	if cfg.WAL != nil {
		cfg.WAL.OnFsync = func(d time.Duration) { s.ins.walFsyncLat.Observe(d.Seconds()) }
		registerWALCollector(s.reg, cfg.WAL)
	}
	s.reg.NewGaugeFunc("reactived_uptime_seconds", "Time since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.NewGaugeFunc("reactived_stream_sessions", "Live streaming ingest sessions.",
		func() float64 { return float64(s.streams.Live()) })
	s.reg.NewGaugeFunc("reactived_draining", "1 while the daemon is draining for shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.reg.NewGaugeFunc("reactived_replica", "1 while the daemon is a read-only replica.",
		func() float64 {
			if s.readOnly.Load() {
				return 1
			}
			return 0
		})
	return s
}

// Table returns the underlying sharded table (tests and tooling).
func (s *Server) Table() *Table { return s.table }

// ServesKind reports whether the daemon serves the speculation kind.
func (s *Server) ServesKind(k trace.Kind) bool {
	return k.Valid() && s.kinds[k]
}

// KindNames returns the served speculation kinds' names, in trace.Kind order
// (what /v1/info advertises as "kinds").
func (s *Server) KindNames() []string {
	out := make([]string, 0, trace.KindCount)
	for k := trace.Kind(0); k < trace.KindCount; k++ {
		if s.kinds[k] {
			out = append(out, k.String())
		}
	}
	return out
}

// WAL returns the configured write-ahead log, or nil when durability is
// disabled (debug pages and tooling).
func (s *Server) WAL() *wal.Log { return s.cfg.WAL }

// Registry returns the server's metrics registry so the embedding binary can
// register daemon-level metrics into the same /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// cursorFor returns program's cursor, creating it on first sight.
func (s *Server) cursorFor(program string) *cursor {
	s.cursorsMu.Lock()
	defer s.cursorsMu.Unlock()
	c := s.cursors[program]
	if c == nil {
		c = &cursor{}
		s.cursors[program] = c
	}
	return c
}

// BeginDrain makes subsequent ingest and snapshot requests fail with 503
// while in-flight ones complete (http.Server.Shutdown waits for those), and
// asks every active stream session to finish its current frame, send a
// terminal "draining" frame, and close (the client surfaces ErrDraining, not
// a connection reset). Read-only endpoints keep working.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.streams.Drain()
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	// An alias of /v1/ingest: perfbench/traced.go still posts non-branch
	// kinds here.
	mux.HandleFunc("/v2/ingest", s.handleIngest)
	mux.HandleFunc("/v1/decide", s.handleDecide)
	mux.HandleFunc("/v1/info", s.handleInfo)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/promote", s.handlePromote)
	mux.HandleFunc("/v1/cursor", s.handleCursor)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// frameSpan locates one frame of a batch: an applied frame owns
// [pstart, pend) of the shared raw payload buffer and events of the decoded
// events (and as many decision bytes), in frame order; a rejected frame is an
// empty span carrying the rejection diagnostic.
type frameSpan struct {
	pstart, pend int
	events       int
	errMsg       string
}

// ingestScratch is the pooled per-request working set of the ingest hot
// path: the raw payload bytes of every applied frame (one shared buffer,
// frames as spans over it, which the WAL stores verbatim), their decoded
// events, the per-event decision bytes, and the encoded response. Pooling
// these — plus the FrameReader's internal read buffer — makes the
// steady-state handler allocation-free.
type ingestScratch struct {
	payload   []byte
	events    []trace.Event
	frames    []frameSpan
	decisions []byte
	resp      []byte
	fr        *trace.FrameReader
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// maxPooledBytes caps the byte buffers of a pooled ingestScratch (raw
// payload, response) the way maxPooledEvents caps its per-event ones.
const maxPooledBytes = 16 * maxPooledEvents

// putIngestScratch empties sc and returns it to the pool — unless an
// oversized batch grew it past the caps, in which case it is left to the GC
// so one huge POST cannot pin its buffers for as long as traffic keeps the
// pool warm.
func putIngestScratch(sc *ingestScratch) {
	if cap(sc.events) > maxPooledEvents || cap(sc.frames) > maxPooledEvents ||
		cap(sc.decisions) > maxPooledEvents || cap(sc.payload) > maxPooledBytes ||
		cap(sc.resp) > maxPooledBytes {
		return
	}
	sc.payload = sc.payload[:0]
	sc.events = sc.events[:0]
	sc.frames = sc.frames[:0]
	sc.decisions = sc.decisions[:0]
	sc.resp = sc.resp[:0]
	ingestScratchPool.Put(sc)
}

// handleIngest serves POST /v1/ingest (and its /v2/ingest alias): check the
// shared query and the params pin, then run the batch path on the
// kind-encoded table key (the plain program name for kind=branch).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	if s.readOnly.Load() {
		writeError(w, http.StatusForbidden, CodeReadOnly,
			"replica is read-only; ingest on the primary, or promote this replica first")
		return
	}
	q := r.URL.Query()
	program, kind, ok := s.parseQuery(w, q)
	if !ok || !s.checkParamsPin(w, q.Get("params")) {
		return
	}
	// pprof labels let a CPU profile split ingest work by program, kind,
	// transport and role; the body runs inside the labeled region so
	// decode/apply samples carry them.
	pprof.Do(r.Context(), pprof.Labels(
		"program", program, "kind", kind.String(), "transport", "post", "role", s.Mode(),
	), func(context.Context) {
		s.ingestBatch(w, r, trace.EncodeKindProgram(kind, program), program)
	})
}

// parseQuery parses and checks the query vocabulary every program endpoint
// shares — program, an optional kind (absent = branch) and an optional
// policy pin — answering the request itself on failure.
func (s *Server) parseQuery(w http.ResponseWriter, q url.Values) (string, trace.Kind, bool) {
	program := q.Get("program")
	if program == "" {
		writeError(w, http.StatusBadRequest, CodeMalformed, "missing program parameter")
		return "", 0, false
	}
	if !trace.ValidProgramName(program) {
		writeError(w, http.StatusBadRequest, CodeMalformed, "program name contains a NUL byte")
		return "", 0, false
	}
	kind := trace.KindBranch
	if ks := q.Get("kind"); ks != "" {
		k, err := trace.ParseKind(ks)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeUnsupportedKind, err.Error())
			return "", 0, false
		}
		kind = k
	}
	if !s.kinds[kind] {
		writeError(w, http.StatusBadRequest, CodeUnsupportedKind, fmt.Sprintf(
			"kind %q is not served by this daemon (serving %v)", kind, s.KindNames()))
		return "", 0, false
	}
	if pin := q.Get("policy"); pin != "" {
		if !core.ValidPolicy(pin) {
			writeError(w, http.StatusBadRequest, CodeUnknownPolicy, fmt.Sprintf(
				"unknown policy %q (registered: %v)", pin, core.PolicyNames()))
			return "", 0, false
		}
		if pin != s.table.Policy() {
			writeError(w, http.StatusConflict, CodeParamMismatch, fmt.Sprintf(
				"client pinned policy %q != server policy %q", pin, s.table.Policy()))
			return "", 0, false
		}
	}
	return program, kind, true
}

// checkParamsPin validates an optional params=<hex hash> pin against the
// daemon's params hash, answering the request itself on failure.
func (s *Server) checkParamsPin(w http.ResponseWriter, pin string) bool {
	if pin == "" {
		return true
	}
	h, err := parseParamsHash(pin)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, "bad params parameter: "+err.Error())
		return false
	}
	if h != s.paramsHash {
		writeError(w, http.StatusConflict, CodeParamMismatch, fmt.Sprintf(
			"client controller params hash %s != server %s",
			formatParamsHash(h), formatParamsHash(s.paramsHash)))
		return false
	}
	return true
}

// ingestBatch is handleIngest's validated body: decode, commit, respond.
// key is the kind-encoded table key; program is the plain name spans carry.
func (s *Server) ingestBatch(w http.ResponseWriter, r *http.Request, key, program string) {
	clk := stageClock{start: time.Now()}

	// An X-Reactive-Trace header joins this batch to a trace the client
	// started (its encode and network spans share the ID); otherwise the
	// server's own 1-in-N sampler decides.
	traceID := s.cfg.Trace.SampleBatch()
	if h := r.Header.Get(TraceHeader); h != "" {
		if id, err := strconv.ParseUint(h, 10, 64); err == nil && id != 0 {
			traceID = id
		}
	}

	sc := ingestScratchPool.Get().(*ingestScratch)
	defer putIngestScratch(sc)

	// Decode — read and decode every frame, no locks held. The whole body is
	// consumed into pooled buffers before the program cursor is taken, so a
	// client trickling bytes over a slow socket cannot stall other ingesters
	// for the same program. Each frame is walked once: its raw bytes go to
	// sc.payload for the WAL to store verbatim, its events to sc.events for
	// the table.
	var truncated error
	if sc.fr == nil {
		sc.fr = trace.NewFrameReader(r.Body)
	} else {
		sc.fr.Reset(r.Body)
	}
	fr := sc.fr
	for {
		p0, e0 := len(sc.payload), len(sc.events)
		payload, events, err := fr.NextPayloadAppend(sc.payload, sc.events)
		if err == io.EOF {
			break
		}
		var fe *trace.FrameError
		if errors.As(err, &fe) {
			// The frame is corrupt but the framing survived: reject
			// this frame only and keep consuming the batch.
			s.ins.rejectedFrames.Inc()
			sc.frames = append(sc.frames, frameSpan{pstart: p0, pend: p0, errMsg: fe.Error()})
			continue
		}
		if err != nil {
			// Framing lost: nothing after this point can be trusted.
			// The frames decoded so far still apply (partial-apply
			// contract); the response ends with a truncation record.
			truncated = err
			break
		}
		sc.payload, sc.events = payload, events
		sc.frames = append(sc.frames, frameSpan{pstart: p0, pend: len(payload), events: len(events) - e0})
	}
	clk.lap(stageDecode)

	decisions, firstSeq, err := s.commit(s.cfg.WAL, key, s.cursorFor(key), sc.payload, sc.events, sc.frames,
		traceID, &clk, sc.decisions[:0])
	sc.decisions = decisions
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "wal append: "+err.Error())
		return
	}

	// Respond — encode and write the response from a pooled buffer. The
	// decisions come one byte per event in frame order, so each applied
	// frame takes the next f.events of them.
	resp := sc.resp[:0]
	resp = append(resp, respMagic[:]...)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { resp = append(resp, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	putUvarint(uint64(len(sc.frames)))
	for _, f := range sc.frames {
		if f.errMsg == "" {
			resp = append(resp, ingestApplied)
			putUvarint(uint64(f.events))
			resp = append(resp, decisions[:f.events]...)
			decisions = decisions[f.events:]
		} else {
			resp = append(resp, ingestRejected)
			putUvarint(uint64(len(f.errMsg)))
			resp = append(resp, f.errMsg...)
		}
	}
	if truncated != nil {
		s.ins.truncatedBatches.Inc()
		msg := truncated.Error()
		resp = append(resp, ingestTruncated)
		putUvarint(uint64(len(msg)))
		resp = append(resp, msg...)
	}
	sc.resp = resp
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	if _, err := w.Write(resp); err != nil {
		// The response is lost (client gone, connection reset): the events
		// are already applied, so all we can do is count it.
		s.ins.responseErrors.Inc()
	}
	clk.lap(stageRespond)
	s.finishBatch(&clk, traceID, program, len(sc.events), firstSeq)
}

// DecideResponse is the JSON answer of /v1/decide: one unit's current
// classification, with the raw speculation direction as a boolean.
type DecideResponse struct {
	Program string `json:"program"`
	Kind    string `json:"kind"`
	ID      uint32 `json:"id"`
	State   string `json:"state"`
	Dir     bool   `json:"dir"`
	Live    bool   `json:"live"`
}

// handleDecide serves GET /v1/decide?program=P[&kind=K]&id=N.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	program, kind, ok := s.parseQuery(w, q)
	if !ok {
		return
	}
	id, err := strconv.ParseUint(q.Get("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, "bad id parameter: "+err.Error())
		return
	}
	d := s.table.DecideKind(program, kind, trace.BranchID(id))
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, DecideResponse{
		Program: program,
		Kind:    kind.String(),
		ID:      uint32(id),
		State:   d.State.String(),
		Dir:     d.Dir,
		Live:    d.Live,
	})
}

// Health is the JSON answer of /healthz.
type Health struct {
	Status    string  `json:"status"`
	UptimeSec float64 `json:"uptime_sec"`
	Shards    int     `json:"shards"`
	Programs  int     `json:"programs"`
	Events    uint64  `json:"events"`
	Draining  bool    `json:"draining"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var total ShardMetrics
	for _, m := range s.table.Metrics() {
		total.Add(m)
	}
	s.cursorsMu.Lock()
	programs := len(s.cursors)
	s.cursorsMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, Health{
		Status:    "ok",
		UptimeSec: time.Since(s.start).Seconds(),
		Shards:    s.table.Shards(),
		Programs:  programs,
		Events:    total.Events,
		Draining:  s.draining.Load(),
	})
}

// writeJSON encodes v onto an already-200 response.
func writeJSON(w http.ResponseWriter, v any) { json.NewEncoder(w).Encode(v) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// SnapshotResult is the JSON answer of /v1/snapshot.
type SnapshotResult struct {
	Entries  int    `json:"entries"`
	Programs int    `json:"programs"`
	WALSeq   uint64 `json:"wal_seq"`
	Path     string `json:"path"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	res, err := s.SnapshotNow()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, res)
}

// SnapshotNow persists the full service state to the configured snapshot
// directory. Concurrent calls serialize. Without a WAL, concurrent ingest
// yields per-entry consistency (see Table.SnapshotEntries); with one, the
// capture excludes in-flight apply sections (applyMu) so the snapshot's WAL
// anchor is exact — every record below it is fully applied, none above it —
// and segments wholly below the anchor are compacted away once the snapshot
// is durably installed.
func (s *Server) SnapshotNow() (SnapshotResult, error) {
	if s.cfg.SnapshotDir == "" {
		return SnapshotResult{}, fmt.Errorf("server: no snapshot directory configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	snapStart := time.Now()
	if s.cfg.WAL != nil {
		s.applyMu.Lock()
	}
	snap := &Snapshot{
		Version: snapshotVersion,
		Params:  s.cfg.Params,
		Policy:  s.table.Policy(),
		Cursors: s.exportCursors(),
		Entries: s.table.SnapshotEntries(),
	}
	if s.cfg.WAL != nil {
		snap.WALSeq = s.cfg.WAL.NextSeq()
		s.applyMu.Unlock()
	}
	if err := WriteSnapshot(s.cfg.SnapshotDir, snap); err != nil {
		return SnapshotResult{}, err
	}
	s.ins.snapshots.Inc()
	if s.cfg.WAL != nil {
		// The snapshot is durable: everything below its anchor is dead
		// weight. A compaction failure does not invalidate the snapshot.
		if _, err := s.cfg.WAL.CompactTo(snap.WALSeq); err != nil {
			s.logf("wal: compaction after snapshot: %v", err)
		}
	}
	// Snapshots are rare and stall-prone (they hold applyMu): always span
	// them when a tracer is attached, no sampling.
	s.cfg.Trace.RecordInfra("snapshot", snapStart, time.Since(snapStart))
	s.logf("snapshot: %d entries, %d programs, wal seq %d -> %s",
		len(snap.Entries), len(snap.Cursors), snap.WALSeq, snapshotPath(s.cfg.SnapshotDir))
	return SnapshotResult{
		Entries:  len(snap.Entries),
		Programs: len(snap.Cursors),
		WALSeq:   snap.WALSeq,
		Path:     snapshotPath(s.cfg.SnapshotDir),
	}, nil
}

// exportCursors copies every program's instruction cursor, sorted by name.
func (s *Server) exportCursors() []CursorSnapshot {
	s.cursorsMu.Lock()
	defer s.cursorsMu.Unlock()
	out := make([]CursorSnapshot, 0, len(s.cursors))
	for name, c := range s.cursors {
		c.mu.Lock()
		out = append(out, CursorSnapshot{Program: name, Instr: c.instr, Events: c.events})
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Program < out[j].Program })
	return out
}

// RestoreFromDisk loads the configured snapshot directory's current
// snapshot, if any, and imports it. It returns whether a snapshot was
// restored. Restoring a snapshot whose controller parameters differ from the
// server's, or with an entry the table cannot hold (Table.RestoreEntries),
// fails with ErrSnapshotMismatch and restores nothing (decisions would
// diverge mid-stream otherwise).
func (s *Server) RestoreFromDisk() (bool, error) {
	if s.cfg.SnapshotDir == "" {
		return false, nil
	}
	snap, err := LoadSnapshot(s.cfg.SnapshotDir)
	if err != nil {
		return false, err
	}
	if snap == nil {
		return false, nil
	}
	if snap.Params != s.cfg.Params {
		return false, fmt.Errorf("%w: snapshot %+v vs configured %+v",
			ErrSnapshotMismatch, snap.Params, s.cfg.Params)
	}
	// Pre-policy snapshots carry "" — they were all written by reactive
	// daemons, so "" compares as the reactive default.
	snapPolicy := snap.Policy
	if snapPolicy == "" {
		snapPolicy = core.PolicyReactive
	}
	if snapPolicy != s.table.Policy() {
		return false, fmt.Errorf("%w: snapshot policy %q vs configured %q",
			ErrSnapshotMismatch, snapPolicy, s.table.Policy())
	}
	if err := s.table.RestoreEntries(snap.Entries); err != nil {
		return false, err
	}
	s.cursorsMu.Lock()
	for _, cs := range snap.Cursors {
		s.cursors[cs.Program] = &cursor{instr: cs.Instr, events: cs.Events}
	}
	s.cursorsMu.Unlock()
	s.restoredWALSeq = snap.WALSeq
	s.logf("restored snapshot: %d entries, %d programs, wal seq %d",
		len(snap.Entries), len(snap.Cursors), snap.WALSeq)
	return true, nil
}
