package obs

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage in a batch's life. A trace is the set of spans
// sharing a Trace ID; within one node, Parent links a stage to the span that
// contains it (the server's "batch" root contains decode, wal_append, fsync,
// apply and respond). Across nodes only the Trace ID travels — the stream 'E'
// frame (stream protocol 4) and the replication 'S' record frame
// (replication protocol 2) both carry it — so a primary's ship span and a
// follower's follower_apply span join the trace by ID with Parent zero.
//
// Infrastructure spans (wal_fsync, wal_rotate, repl_connect) carry Trace
// zero: they time background machinery that no single batch owns.
type Span struct {
	Trace  uint64
	Span   uint64
	Parent uint64
	// Node names the process that recorded the span: reactived uses
	// "primary" or "replica" by its role at startup, reactiveload "loadgen".
	Node  string
	Stage string
	// Program is the event program the span worked on, when one applies.
	Program string
	// Events is the batch's event count, when one applies.
	Events int
	// Seq is the first WAL sequence the span covers, when one applies.
	Seq uint64
	// Start is the span's start wall clock in Unix nanoseconds; Dur its
	// duration in nanoseconds.
	Start int64
	Dur   int64
}

// DefaultTraceRing is the span ring capacity a Tracer keeps for the /debug
// span dump when the caller does not choose one.
const DefaultTraceRing = 1 << 14

// seqTableSize is the seq→trace side-table capacity (power of two). The
// table lets the replication shipper — which reads records back off the WAL,
// where no trace context is stored — recover the trace ID a traced batch's
// appends belonged to. Entries are evicted by ring position; a shipper more
// than seqTableSize records behind simply ships those records untraced.
const seqTableSize = 1 << 12

// Tracer records sampled batch spans. The zero-cost off switch is the nil
// receiver: every method nil-checks first, so untraced builds pay one
// predictable branch per call site. Sampling is 1-in-N on batch arrival;
// sampled batches get a fresh trace ID, everything else records nothing.
//
// Spans land in a fixed ring (for the /debug/spans dump) and, when an output
// writer is attached, as byte-deterministic JSONL: fixed field order, fixed
// integer formats, so identical span values encode to identical bytes.
type Tracer struct {
	node   string
	sample uint64

	batches atomic.Uint64 // batch arrivals, for 1-in-N sampling
	infra   atomic.Uint64 // infra-span arrivals, sampled on their own counter
	ids     atomic.Uint64 // span/trace ID counter, low bits
	idBase  uint64        // node-hash high bits, keeps IDs distinct across nodes

	mu      sync.Mutex
	ring    []Span
	next    int
	n       int
	dropped uint64
	w       *bufio.Writer
	werr    error

	seqMu  sync.RWMutex
	seqTab [seqTableSize]seqTraceEntry
}

type seqTraceEntry struct {
	seq   uint64
	trace uint64
}

// NewTracer returns a tracer that samples one batch in sampleN (0 disables
// sampling; explicit trace IDs arriving over the wire are still honored) and
// stamps node on every span. Node-derived high ID bits keep trace and span
// IDs from colliding when several nodes' span files are concatenated.
func NewTracer(node string, sampleN int) *Tracer {
	if sampleN < 0 {
		sampleN = 0
	}
	h := fnv.New64a()
	io.WriteString(h, node)
	t := &Tracer{
		node:   node,
		sample: uint64(sampleN),
		idBase: (h.Sum64() & 0xffff) << 40,
		ring:   make([]Span, DefaultTraceRing),
	}
	return t
}

// SetOutput attaches a JSONL span stream. Each recorded span is written and
// flushed immediately — span volume is bounded by sampling, and an abrupt
// SIGKILL (the failover smoke's whole point) must not lose the tail.
func (t *Tracer) SetOutput(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.w = bufio.NewWriterSize(w, 1<<15)
	t.mu.Unlock()
}

// Close flushes the JSONL stream, if any.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		if err := t.w.Flush(); err != nil && t.werr == nil {
			t.werr = err
		}
		t.w = nil
	}
	return t.werr
}

// Node returns the tracer's node label ("" on a nil tracer).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// id returns a fresh process-unique, node-salted ID. Never zero.
func (t *Tracer) id() uint64 {
	return t.idBase | (t.ids.Add(1) & 0xffffffffff)
}

// SampleBatch decides whether the arriving batch is traced: every sampleN-th
// call returns a fresh trace ID, the rest (and every call on a nil or
// sampling-disabled tracer) return zero.
func (t *Tracer) SampleBatch() uint64 {
	if t == nil || t.sample == 0 {
		return 0
	}
	if t.batches.Add(1)%t.sample != 0 {
		return 0
	}
	return t.id()
}

// SampleInfra is SampleBatch for background infrastructure spans (WAL fsync
// and rotation), on an independent counter so infra volume does not skew
// batch sampling. It returns whether to record, not a trace ID — infra spans
// are trace-less.
func (t *Tracer) SampleInfra() bool {
	if t == nil || t.sample == 0 {
		return false
	}
	return t.infra.Add(1)%t.sample == 0
}

// SpanID mints a span ID for a span the caller will Record later. Returns
// zero on a nil tracer.
func (t *Tracer) SpanID() uint64 {
	if t == nil {
		return 0
	}
	return t.id()
}

// Record stores one completed span in the ring and on the JSONL stream. A
// nil tracer, or a zero span ID, records nothing; the caller does not need
// its own tracing-off branch.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Span == 0 {
		return
	}
	s.Node = t.node
	t.mu.Lock()
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.w != nil {
		writeSpanJSON(t.w, s)
		if err := t.w.Flush(); err != nil && t.werr == nil {
			t.werr = err
		}
	}
	t.mu.Unlock()
}

// RecordStage is the one-call form for a stage measured inline: it mints the
// span ID, stamps start/duration, and records. Returns the span ID (zero on
// a nil tracer) so callers can parent further children under it.
func (t *Tracer) RecordStage(trace, parent uint64, stage, program string, events int, seq uint64, start time.Time, dur time.Duration) uint64 {
	if t == nil || trace == 0 {
		return 0
	}
	id := t.id()
	t.Record(Span{
		Trace:   trace,
		Span:    id,
		Parent:  parent,
		Stage:   stage,
		Program: program,
		Events:  events,
		Seq:     seq,
		Start:   start.UnixNano(),
		Dur:     int64(dur),
	})
	return id
}

// RecordInfra records one trace-less infrastructure span (wal_fsync,
// wal_rotate): callers gate volume with SampleInfra first.
func (t *Tracer) RecordInfra(stage string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.Record(Span{
		Span:  t.id(),
		Stage: stage,
		Start: start.UnixNano(),
		Dur:   int64(dur),
	})
}

// NoteSeq remembers that WAL sequence seq belongs to trace, so the
// replication shipper can re-attach the trace when it ships the record. A
// nil tracer or an untraced batch (trace 0) notes nothing.
func (t *Tracer) NoteSeq(seq, trace uint64) {
	if t == nil || trace == 0 {
		return
	}
	t.seqMu.Lock()
	t.seqTab[seq%seqTableSize] = seqTraceEntry{seq: seq, trace: trace}
	t.seqMu.Unlock()
}

// TraceForSeq returns the trace a WAL sequence was noted under, or zero when
// the sequence was untraced or already evicted from the side table.
func (t *Tracer) TraceForSeq(seq uint64) uint64 {
	if t == nil {
		return 0
	}
	t.seqMu.RLock()
	e := t.seqTab[seq%seqTableSize]
	t.seqMu.RUnlock()
	if e.seq != seq {
		return 0
	}
	return e.trace
}

// Dropped returns how many spans the ring has overwritten since start.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL dumps the ring's retained spans, oldest first, in the same
// byte-deterministic JSONL encoding the output stream uses. The /debug/spans
// handler serves exactly this.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]Span, 0, t.n)
	start := (t.next - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		spans = append(spans, t.ring[(start+i)%len(t.ring)])
	}
	t.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		writeSpanJSON(bw, s)
	}
	return bw.Flush()
}

// writeSpanJSON writes one span as one JSON line: fixed field order and
// plain %d/%q formatting, so identical spans encode to identical bytes.
func writeSpanJSON(w io.Writer, s Span) {
	fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"node":%q,"stage":%q,"program":%q,"events":%d,"seq":%d,"start":%d,"dur":%d}`+"\n",
		s.Trace, s.Span, s.Parent, s.Node, s.Stage, s.Program, s.Events, s.Seq, s.Start, s.Dur)
}
