package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/experiments"
	"reactivespec/internal/mssp"
	"reactivespec/internal/obs"
	"reactivespec/internal/program"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/wal"
	"reactivespec/internal/workload"
)

// The traced run replays a workload's inputs in-process through each
// package's public entry points, in the daemon's order (validate → WAL
// append → interval sync → apply → respond), with one span per call under a
// per-batch root span. Further probe passes time the entry points the
// daemon path does not call directly (decoding into events, kind-keyed
// apply, decides, snapshot load and restore, WAL replay, recovery, the HTTP
// handler, the stream transport, the simulator and the experiment fan-out).
// Spans are kept in memory and written as JSONL when the run ends.

// spanNode is the node label of every benchmark span.
const spanNode = "perfbench"

// stageStat accumulates one stage's calls.
type stageStat struct {
	calls, errors int64
	events        int64
	dur           time.Duration
	covered       time.Duration // root stages: time covered by children
	samples       []float64     // per-call seconds
}

// spanTracer records spans and per-stage statistics; with on false, calls
// run untimed (the tracing-off baseline). A spanTracer is used from one
// goroutine; tracers that run concurrently share ids.
type spanTracer struct {
	on    bool
	ids   *atomic.Uint64
	spans []obs.Span
	stats map[string]*stageStat
}

func newSpanTracer(on bool, ids *atomic.Uint64) *spanTracer {
	return &spanTracer{on: on, ids: ids, stats: map[string]*stageStat{}}
}

func (tr *spanTracer) stat(stage string) *stageStat {
	st := tr.stats[stage]
	if st == nil {
		st = &stageStat{}
		tr.stats[stage] = st
	}
	return st
}

// merge folds another tracer's spans and statistics into tr.
func (tr *spanTracer) merge(o *spanTracer) {
	tr.spans = append(tr.spans, o.spans...)
	for name, s := range o.stats {
		st := tr.stat(name)
		st.calls += s.calls
		st.errors += s.errors
		st.events += s.events
		st.dur += s.dur
		st.covered += s.covered
		st.samples = append(st.samples, s.samples...)
	}
}

// root is one open per-batch root span.
type root struct {
	tr            *spanTracer
	trace, span   uint64
	stage, prog   string
	events        int
	start         time.Time
	covered       time.Duration
	failed        bool
	childrenSpans int
}

func (tr *spanTracer) begin(stage, prog string, events int) *root {
	r := &root{tr: tr, stage: stage, prog: prog, events: events}
	if tr.on {
		r.trace = tr.ids.Add(1)
		r.span = tr.ids.Add(1)
	}
	r.start = time.Now()
	return r
}

// call runs fn as one child call of the root, timed and spanned when
// tracing is on.
func (r *root) call(stage string, events int, fn func() error) error {
	if !r.tr.on {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.covered += d
	st := r.tr.stat(stage)
	st.calls++
	st.events += int64(events)
	st.dur += d
	st.samples = append(st.samples, d.Seconds())
	if err != nil {
		st.errors++
		r.failed = true
	}
	r.tr.spans = append(r.tr.spans, obs.Span{Trace: r.trace, Span: r.tr.ids.Add(1), Parent: r.span,
		Node: spanNode, Stage: stage, Program: r.prog, Events: events, Start: t0.UnixNano(), Dur: int64(d)})
	return err
}

// end closes the root span.
func (r *root) end() {
	if !r.tr.on {
		return
	}
	d := time.Since(r.start)
	st := r.tr.stat(r.stage)
	st.calls++
	st.events += int64(r.events)
	st.dur += d
	st.covered += r.covered
	if r.failed {
		st.errors++
	}
	r.tr.spans = append(r.tr.spans, obs.Span{Trace: r.trace, Span: r.span, Node: spanNode, Stage: r.stage,
		Program: r.prog, Events: r.events, Start: r.start.UnixNano(), Dur: int64(d)})
}

// nsPerEvent is a stage's total time per event.
func (tr *spanTracer) nsPerEvent(stage string) float64 {
	st := tr.stat(stage)
	if st.events == 0 {
		return 0
	}
	return float64(st.dur) / float64(st.events)
}

// ingestBatch is one batch of a workload's inputs as the daemon receives it.
type ingestBatch struct {
	program string
	kind    trace.Kind
	events  []trace.Event
	frame   []byte
	expect  uint64
}

func (b *ingestBatch) key() string { return trace.EncodeKindProgram(b.kind, b.program) }
func (b *ingestBatch) label() string {
	return b.program + "/" + b.kind.String()
}

// tracedKey is one decide probe query; want is checked when non-nil.
type tracedKey struct {
	program string
	kind    trace.Kind
	id      trace.BranchID
	want    *server.Decision
}

// ingestSet is a workload's inputs for the traced run.
type ingestSet struct {
	batches []ingestBatch
	wal     bool // the workload's daemon logs to a WAL
	specs   []*workload.Spec
	keys    []tracedKey
}

// tracedInputs builds the traced run's inputs from the same generators as
// the timed run. repro has no serving inputs of its own; its serving-layer
// numbers come from the stream-hot inputs.
func tracedInputs(o options) (*ingestSet, error) {
	set := &ingestSet{}
	switch o.workload {
	case "stream-hot", "repro":
		sessions, err := buildStreamHot(o.seed, streamCycleFrames, false)
		if err != nil {
			return nil, err
		}
		for f := 0; f < streamCycleFrames; f++ {
			for _, s := range sessions {
				set.batches = append(set.batches, ingestBatch{program: s.program, kind: trace.KindBranch,
					events: s.events[f], frame: s.frames[f], expect: s.expect[f]})
			}
		}
		for _, s := range sessions {
			set.specs = append(set.specs, s.spec)
		}
	case "post-fleet", "restart":
		passes, timed := 1, 2048
		if o.workload == "restart" {
			passes, timed = 2, 0
		}
		f, err := buildFleet(o.seed, passes, timed, false)
		if err != nil {
			return nil, err
		}
		set.wal = true
		n := len(f.sched[0])
		if len(f.sched[1]) > n {
			n = len(f.sched[1])
		}
		for i := 0; i < n; i++ {
			for c := 0; c < 2; c++ {
				if i >= len(f.sched[c]) {
					continue
				}
				it := f.sched[c][i]
				s := f.streams[it.stream]
				evs := s.batches[it.batch]
				set.batches = append(set.batches, ingestBatch{program: s.program, kind: s.kind,
					events: evs, frame: trace.EncodeFrameAppend(nil, evs), expect: it.expect})
			}
		}
		for _, s := range f.streams {
			set.specs = append(set.specs, s.spec)
		}
		for _, k := range sampleDecideKeys(o.seed, f, 8192, false) {
			s := f.streams[k.stream]
			tk := tracedKey{program: s.program, kind: s.kind, id: k.id}
			if o.workload == "restart" {
				// The replay ends in exactly the restarted daemon's state.
				want := k.want
				tk.want = &want
			}
			set.keys = append(set.keys, tk)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if len(set.keys) == 0 {
		r := rng{s: mix(o.seed, 41)}
		for i := 0; i < 8192; i++ {
			s := set.specs[r.next()%uint64(len(set.specs))]
			set.keys = append(set.keys, tracedKey{program: s.Name, kind: trace.KindBranch,
				id: trace.BranchID(r.next() % uint64(len(s.Branches)))})
		}
	}
	return set, nil
}

// walTickEvents is one wal.DefaultSyncInterval tick's worth of events at the
// post-fleet daemon's rate (about 2M events/s). Under -wal-fsync interval
// Log.Commit returns at once; the cost is the background flusher's flush and
// fsync each tick, which holds the log's lock against appends. The replay
// opens its log with SyncNever and plays the flusher itself: one Log.Sync,
// spanned as fsync, per walTickEvents logged events.
const walTickEvents = 200_000

// walTicker counts logged events up to the next flusher tick.
type walTicker struct{ events int }

// due adds n logged events and reports whether a tick falls on them.
func (w *walTicker) due(n int) bool {
	w.events += n
	if w.events < walTickEvents {
		return false
	}
	w.events = 0
	return true
}

func openWAL(dir string, policy wal.SyncPolicy) (*wal.Log, error) {
	return wal.Open(wal.Options{
		Dir:        dir,
		ParamsHash: server.ParamsPolicyHash(daemonParams, daemonPolicy),
		Policy:     policy,
	})
}

// replay runs the batches through the daemon's ingest path: validate, WAL
// append and the interval flusher's sync (when the workload has a WAL),
// apply, encode the decision frame. It checks every batch's decisions and
// returns the table and each key's instruction cursor.
func replay(set *ingestSet, tr *spanTracer, walDir string, t *tally) (*server.Table, map[string]uint64, error) {
	table, err := server.NewTablePolicy(daemonParams, 16, daemonPolicy)
	if err != nil {
		return nil, nil, err
	}
	var wlog *wal.Log
	if set.wal {
		os.RemoveAll(walDir)
		if wlog, err = openWAL(walDir, wal.SyncNever); err != nil {
			return nil, nil, err
		}
		defer wlog.Close()
	}
	var tick walTicker
	instr := map[string]uint64{}
	var dec, resp []byte
	for i := range set.batches {
		b := &set.batches[i]
		key := b.key()
		n := len(b.events)
		r := tr.begin("batch", b.label(), n)
		err := r.call("decode", n, func() error {
			_, err := trace.ValidateFrame(b.frame)
			return err
		})
		if err == nil && wlog != nil {
			err = r.call("wal_append", n, func() error {
				_, err := wlog.AppendPayload(key, b.frame)
				return err
			})
			if err == nil && tick.due(n) {
				err = r.call("fsync", 0, wlog.Sync)
			}
		}
		if err == nil {
			r.call("apply", n, func() error {
				dec, instr[key] = table.ApplyFrame(key, b.frame, instr[key], dec[:0])
				return nil
			})
			r.call("respond", n, func() error {
				resp = trace.AppendDecisionsRLE(resp[:0], dec)
				if tr.on {
					// A pseudo-stage that counts encoded bytes, not calls.
					tr.stat("respond_bytes").events += int64(len(resp))
				}
				return nil
			})
		}
		r.end()
		switch {
		case err != nil:
			t.fail(fmt.Errorf("replay %s batch %d: %w", b.label(), i, err))
		case digest(dec) != b.expect:
			t.fail(fmt.Errorf("replay %s batch %d: decisions differ from the in-process policy set", b.label(), i))
		default:
			t.ok()
		}
	}
	return table, instr, nil
}

// runTraced is the per-layer run of a workload.
func runTraced(ctx context.Context, o options, t *tally) (*measured, error) {
	set, err := tracedInputs(o)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, "traced-"+o.workload)
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var events int64
	for _, b := range set.batches {
		events += int64(len(b.events))
	}
	var ids atomic.Uint64
	var tr *spanTracer
	m := newMeasured()

	// Replay with spans off and on, alternating, for the run's seconds (at
	// least twice each); the fastest pass of each side gives the tracing
	// overhead, and the fastest traced pass the spans and the stage figures,
	// so that both come from the same pass. The WAL syncs are few per pass,
	// so their percentiles pool every traced pass.
	var offBest, onBest time.Duration
	var table *server.Table
	var instr map[string]uint64
	var syncSamples []float64
	deadline := deadlineFrom(o.seconds)
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		for _, on := range []bool{false, true} {
			rtr := newSpanTracer(on, &ids)
			t0 := time.Now()
			tb, cursors, err := replay(set, rtr, filepath.Join(dir, "replay-wal"), t)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if on {
				if onBest == 0 || d < onBest {
					onBest = d
					tr, table, instr = rtr, tb, cursors
				}
				syncSamples = append(syncSamples, rtr.stat("fsync").samples...)
			} else if offBest == 0 || d < offBest {
				offBest = d
			}
		}
	}
	offRate := float64(events) / offBest.Seconds()
	onRate := float64(events) / onBest.Seconds()
	m.put("replay.events_per_s_untraced", offRate, "events/s")
	m.put("replay.events_per_s_traced", onRate, "events/s")
	m.put("replay.trace_overhead_frac", (onBest.Seconds()-offBest.Seconds())/offBest.Seconds(), "ratio")
	batch := tr.stat("batch")
	coverage := float64(batch.covered) / float64(batch.dur)
	m.put("spans.batch_coverage_frac", coverage, "ratio")
	serverNs := tr.nsPerEvent("decode") + tr.nsPerEvent("wal_append") + tr.nsPerEvent("apply") + tr.nsPerEvent("respond") +
		float64(tr.stat("fsync").dur)/float64(events)
	whereTime(m, tr, "batch", []string{"decode", "wal_append", "fsync", "apply", "respond"})

	// Table probes on the replayed table: entries, decides, restore.
	var entries uint64
	for _, sm := range table.Metrics() {
		entries += sm.Entries
	}
	m.put("table.entries", float64(entries), "count")
	probeDecides(set, table, tr, t)
	snapEntries := table.SnapshotEntries()

	// Decode into events and kind-keyed apply, continuing on the same table
	// from the replay's cursors.
	{
		var evs []trace.Event
		var dec []byte
		for i := range set.batches {
			b := &set.batches[i]
			n := len(b.events)
			r := tr.begin("probe", b.label(), n)
			err := r.call("decode_events", n, func() error {
				var err error
				evs, err = trace.DecodeFrameAppend(b.frame, evs[:0])
				return err
			})
			if err == nil {
				r.call("apply_kind", n, func() error {
					dec, instr[b.key()] = table.ApplyBatchKind(b.program, b.kind, evs, instr[b.key()], dec[:0])
					return nil
				})
			}
			r.end()
			if err != nil {
				t.fail(fmt.Errorf("decode %s batch %d: %w", b.label(), i, err))
			}
		}
	}
	// Restore the replayed table's entries into a fresh table.
	{
		fresh, err := server.NewTablePolicy(daemonParams, 16, daemonPolicy)
		if err != nil {
			return nil, err
		}
		r := tr.begin("probe", "", len(snapEntries))
		r.call("restore", len(snapEntries), func() error {
			fresh.RestoreEntries(snapEntries)
			return nil
		})
		r.end()
	}
	// Client-side encoding and the policy set, per batch.
	{
		var buf []byte
		mirrors := map[string]*mirror{}
		var dec []byte
		for i := range set.batches {
			b := &set.batches[i]
			n := len(b.events)
			r := tr.begin("probe", b.label(), n)
			r.call("client_encode", n, func() error {
				buf = trace.EncodeFrameAppend(buf[:0], b.events)
				return nil
			})
			mr := mirrors[b.key()]
			if mr == nil {
				mr = newMirror()
				mirrors[b.key()] = mr
			}
			r.call("policy", n, func() error {
				dec = mr.decide(dec[:0], b.events)
				return nil
			})
			r.end()
			if !bytes.Equal(buf, b.frame) || digest(dec) != b.expect {
				t.fail(fmt.Errorf("client probe %s batch %d: encoding or policy decisions differ from the replay", b.label(), i))
			}
		}
	}
	// Workload generation: as many events as the replay, spread evenly over
	// the workload's generators.
	{
		buf := make([]trace.Event, 1024)
		want := int(events) / len(set.specs)
		for _, s := range set.specs {
			gen := workload.NewGenerator(s)
			for done := 0; done < want; {
				var n int
				r := tr.begin("probe", s.Name, len(buf))
				r.call("gen", len(buf), func() error {
					n = gen.NextBatch(buf)
					return nil
				})
				r.end()
				if n == 0 {
					gen.Reset()
				}
				done += n
			}
		}
	}
	if !set.wal {
		// The workload's daemon has no WAL; time the log on the same batches,
		// cycling through them until the flusher has ticked minWALTicks times.
		const minWALTicks = 32
		wlog, err := openWAL(filepath.Join(dir, "probe-wal"), wal.SyncNever)
		if err != nil {
			return nil, err
		}
		var tick walTicker
		for i := 0; tr.stat("fsync").calls < minWALTicks; i++ {
			b := &set.batches[i%len(set.batches)]
			n := len(b.events)
			r := tr.begin("probe", b.label(), n)
			err := r.call("wal_append", n, func() error {
				_, err := wlog.AppendPayload(b.key(), b.frame)
				return err
			})
			if err == nil && tick.due(n) {
				err = r.call("fsync", 0, wlog.Sync)
			}
			r.end()
			if err != nil {
				wlog.Close()
				return nil, fmt.Errorf("probe WAL %s batch %d: %w", b.label(), i, err)
			}
		}
		if err := wlog.Close(); err != nil {
			return nil, err
		}
		syncSamples = tr.stat("fsync").samples
	}
	walBytes, err := dirBytes(filepath.Join(dir, "replay-wal"), filepath.Join(dir, "probe-wal"))
	if err != nil {
		return nil, err
	}

	if err := probeServer(ctx, set, dir, tr, t, m); err != nil {
		return nil, err
	}
	streamNs, err := probeStream(ctx, set, tr, t, m)
	if err != nil {
		return nil, err
	}
	if err := probeSimulator(ctx, o, tr, t, m); err != nil {
		return nil, err
	}

	m.put("workload.gen_ns_per_event", tr.nsPerEvent("gen"), "ns")
	m.put("trace.validate_ns_per_event", tr.nsPerEvent("decode"), "ns")
	m.put("trace.decode_ns_per_event", tr.nsPerEvent("decode_events"), "ns")
	m.put("trace.encode_ns_per_event", tr.nsPerEvent("client_encode"), "ns")
	m.put("trace.decisions_ns_per_event", tr.nsPerEvent("respond"), "ns")
	m.put("trace.decisions_bytes_per_event", float64(tr.stat("respond_bytes").events)/float64(tr.stat("respond").events), "B")
	m.put("core.policy_ns_per_event", tr.nsPerEvent("policy"), "ns")
	m.put("table.apply_frame_ns_per_event", tr.nsPerEvent("apply"), "ns")
	m.put("table.apply_kind_ns_per_event", tr.nsPerEvent("apply_kind"), "ns")
	m.put("table.decide_ns", tr.nsPerEvent("decide"), "ns")
	m.put("table.restore_ms", tr.stat("restore").dur.Seconds()*1e3, "ms")
	m.put("wal.append_ns_per_event", tr.nsPerEvent("wal_append"), "ns")
	m.put("wal.commit_us_p50", quantile(syncSamples, 0.50)*1e6, "us")
	m.put("wal.commit_us_p99", quantile(syncSamples, 0.99)*1e6, "us")
	m.note("wal.commit_us_p50", quantile(syncSamples, 0.50)*1e6, "us", len(syncSamples))
	m.note("wal.commit_us_p99", quantile(syncSamples, 0.99)*1e6, "us", len(syncSamples))
	m.put("wal.bytes_per_event", float64(walBytes)/float64(tr.stat("wal_append").events), "B")
	m.put("transport.self_ns_per_event", streamNs-serverNs, "ns")

	layers := map[string][]string{
		"workload":    {"gen"},
		"trace":       {"decode", "decode_events", "client_encode", "respond"},
		"core":        {"policy"},
		"table":       {"apply", "apply_kind", "decide", "restore"},
		"wal":         {"wal_append", "fsync", "wal_replay"},
		"server":      {"post", "snapshot_load", "recover", "stream_session"},
		"client":      {"stream_send", "stream_recv"},
		"transport":   {"stream_recv"},
		"mssp":        {"mssp_baseline", "mssp_run"},
		"experiments": {"fig5_bench", "fig7_bench"},
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		var calls, errs int64
		for _, st := range layers[l] {
			calls += tr.stat(st).calls
			errs += tr.stat(st).errors
		}
		m.note(l+".calls", float64(calls), "count", 0)
		m.note(l+".errors", float64(errs), "count", 0)
	}
	m.note("spans.batch_coverage_frac", coverage, "ratio", int(batch.calls))
	if coverage < 0.95 {
		m.notes = append(m.notes, fmt.Sprintf("batch spans: children cover %.1f%% of the root; the rest is benchmark bookkeeping between calls", coverage*100))
	}

	spansPath := filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return nil, err
	}
	out, err := exec.CommandContext(ctx, filepath.Join(o.bin, "reactivespec"), "-format", "csv", "spans", spansPath).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("reactivespec spans rejected %s: %v: %s", spansPath, err, out)
	}
	m.notes = append(m.notes, "spans: "+spansPath+" ("+strconv.Itoa(len(tr.spans))+" spans; reactivespec spans: "+lastLine(out)+")")
	return m, nil
}

// whereTime records each stage's share of the root spans' time, and the
// uncovered remainder, as report-line details.
func whereTime(m *measured, tr *spanTracer, rootStage string, stages []string) {
	rootSt := tr.stat(rootStage)
	if rootSt.dur == 0 {
		return
	}
	for _, s := range stages {
		st := tr.stat(s)
		if st.calls == 0 {
			continue
		}
		m.note("where."+s+"_pct", 100*float64(st.dur)/float64(rootSt.dur), "%", int(st.calls))
	}
	m.note("where.uncovered_pct", 100*float64(rootSt.dur-rootSt.covered)/float64(rootSt.dur), "%", int(rootSt.calls))
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// dirBytes sums the sizes of the regular files under the given directories
// (missing directories count zero).
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(path string, e os.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return filepath.SkipDir
				}
				return err
			}
			if e.Type().IsRegular() {
				fi, err := e.Info()
				if err != nil {
					return err
				}
				total += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// writeSpans writes spans as JSONL, one obs.Span per line.
func writeSpans(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for _, s := range spans {
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"node":%q,"stage":%q,"program":%q,"events":%d,"seq":%d,"start":%d,"dur":%d}`+"\n",
			s.Trace, s.Span, s.Parent, s.Node, s.Stage, s.Program, s.Events, s.Seq, s.Start, s.Dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeDecides times Table.DecideKind over the sampled keys, 256 per span,
// checking answers where the expectation is known.
func probeDecides(set *ingestSet, table *server.Table, tr *spanTracer, t *tally) {
	const chunk = 256
	for i := 0; i < len(set.keys); i += chunk {
		keys := set.keys[i:min(i+chunk, len(set.keys))]
		got := make([]server.Decision, len(keys))
		r := tr.begin("probe", "decide", len(keys))
		r.call("decide", len(keys), func() error {
			for j, k := range keys {
				got[j] = table.DecideKind(k.program, k.kind, k.id)
			}
			return nil
		})
		r.end()
		for j, k := range keys {
			if k.want == nil {
				continue
			}
			if got[j] != *k.want {
				t.fail(fmt.Errorf("decide %s/%s/%d: table %v, policy set %v", k.program, k.kind, k.id, got[j], *k.want))
			} else {
				t.ok()
			}
		}
	}
}

// probeServer runs the batches through an in-process server's HTTP handler
// (WAL at interval, snapshot halfway), then times the restart path on what
// it left behind: snapshot load, WAL replay and full recovery.
func probeServer(ctx context.Context, set *ingestSet, dir string, tr *spanTracer, t *tally, m *measured) error {
	walDir := filepath.Join(dir, "server-wal")
	snapDir := filepath.Join(dir, "server-snap")
	wlog, err := openWAL(walDir, wal.SyncInterval)
	if err != nil {
		return err
	}
	cfg := server.Config{Params: daemonParams, Policy: daemonPolicy, WAL: wlog, SnapshotDir: snapDir}
	s := server.New(cfg)
	h := s.Handler()
	var body []byte
	for i := range set.batches {
		b := &set.batches[i]
		n := len(b.events)
		body = trace.AppendFrame(body[:0], b.events)
		target := "/v1/ingest?program=" + url.QueryEscape(b.program)
		if b.kind != trace.KindBranch {
			target = "/v2/ingest?program=" + url.QueryEscape(b.program) + "&kind=" + b.kind.String()
		}
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		r := tr.begin("probe", b.label(), n)
		err := r.call("post", n, func() error {
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		})
		r.end()
		if err != nil {
			t.fail(fmt.Errorf("in-process POST %s batch %d: %w", b.label(), i, err))
			wlog.Close()
			return err
		}
		if i == len(set.batches)/2 {
			r := tr.begin("probe", "snapshot", 0)
			r.call("snapshot", 0, func() error {
				_, err := s.SnapshotNow()
				return err
			})
			r.end()
		}
	}
	if err := wlog.Close(); err != nil {
		return err
	}
	m.put("server.post_us_p50", quantile(tr.stat("post").samples, 0.50)*1e6, "us")

	var snap *server.Snapshot
	r := tr.begin("probe", "restart", 0)
	err = r.call("snapshot_load", 0, func() error {
		var err error
		snap, err = server.LoadSnapshot(snapDir)
		if err == nil && snap == nil {
			err = fmt.Errorf("no snapshot under %s", snapDir)
		}
		return err
	})
	r.end()
	if err != nil {
		return err
	}
	m.put("server.snapshot_load_ms", tr.stat("snapshot_load").dur.Seconds()*1e3, "ms")

	var replayed int
	r = tr.begin("probe", "restart", 0)
	err = r.call("wal_replay", 0, func() error {
		rd, err := wal.NewReader(wal.ReaderOptions{Dir: walDir,
			ParamsHash: server.ParamsPolicyHash(daemonParams, daemonPolicy), From: snap.WALSeq})
		if err != nil {
			return err
		}
		defer rd.Close()
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			replayed += len(rec.Events)
		}
	})
	r.end()
	if err != nil {
		return err
	}
	if replayed == 0 {
		return fmt.Errorf("the snapshot covers the whole WAL: nothing to replay")
	}
	m.put("wal.replay_ns_per_event", float64(tr.stat("wal_replay").dur)/float64(replayed), "ns")

	r = tr.begin("probe", "restart", 0)
	err = r.call("recover", replayed, func() error {
		wlog, err := openWAL(walDir, wal.SyncInterval)
		if err != nil {
			return err
		}
		defer wlog.Close()
		cfg.WAL = wlog
		res, err := server.New(cfg).Recover()
		if err == nil && res.ReplayedEvents != uint64(replayed) {
			err = fmt.Errorf("recovery replayed %d events, the WAL reader %d", res.ReplayedEvents, replayed)
		}
		return err
	})
	r.end()
	if err != nil {
		t.fail(err)
		return err
	}
	m.put("server.recover_s", tr.stat("recover").dur.Seconds(), "s")
	return nil
}

// probeStream sends the pre-encoded batches through an in-process stream
// listener on loopback: two concurrent senders, one session per program each,
// window 16. It returns the end-to-end time per event.
func probeStream(ctx context.Context, set *ingestSet, tr *spanTracer, t *tally, m *measured) (float64, error) {
	s := server.New(server.Config{Params: daemonParams, Policy: daemonPolicy})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		s.ServeStream(ln)
		close(served)
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	byProgram := map[string][]*ingestBatch{}
	var programs []string
	for i := range set.batches {
		b := &set.batches[i]
		if byProgram[b.program] == nil {
			programs = append(programs, b.program)
		}
		byProgram[b.program] = append(byProgram[b.program], b)
	}
	hash := server.ParamsPolicyHash(daemonParams, daemonPolicy)
	type worker struct {
		tr               *spanTracer
		wall, wait, recv time.Duration
		events, batches  int64
		err              error
	}
	workers := [2]*worker{}
	var wg sync.WaitGroup
	for w := range workers {
		workers[w] = &worker{tr: newSpanTracer(true, tr.ids)}
		wg.Add(1)
		go func(wk *worker, w int) {
			defer wg.Done()
			for i := w; i < len(programs) && wk.err == nil; i += 2 {
				wk.err = streamSession(ctx, s, ln.Addr().String(), hash, programs[i], byProgram[programs[i]], wk.tr, t,
					&wk.wall, &wk.wait, &wk.recv, &wk.events, &wk.batches)
			}
		}(workers[w], w)
	}
	wg.Wait()
	var wall, wait, recv time.Duration
	var events, batches int64
	for _, wk := range workers {
		if wk.err != nil {
			return 0, wk.err
		}
		tr.merge(wk.tr)
		wall += wk.wall
		wait += wk.wait
		recv += wk.recv
		events += wk.events
		batches += wk.batches
	}
	m.put("server.stream_us_per_batch", wall.Seconds()*1e6/float64(batches), "us")
	m.put("client.send_wait_frac", wait.Seconds()/wall.Seconds(), "ratio")
	m.put("client.recv_ns_per_event", float64(recv)/float64(events), "ns")
	return float64(wall) / float64(events), nil
}

// streamSession drives one program's batches over one stream session.
func streamSession(ctx context.Context, s *server.Server, addr string, hash uint64, prog string, batches []*ingestBatch,
	tr *spanTracer, t *tally, wall, wait, recv *time.Duration, events, nbatches *int64) error {
	t0 := time.Now()
	sess := tr.begin("stream_session", prog, 0)
	st, err := server.DialStream(ctx, addr, prog, hash, server.WithStreamWindow(streamWindow))
	if err != nil {
		return err
	}
	credit := make(chan struct{}, streamWindow)
	for i := 0; i < streamWindow; i++ {
		credit <- struct{}{}
	}
	sendErr := make(chan error, 1)
	go func() {
		for _, b := range batches {
			w0 := time.Now()
			<-credit
			*wait += time.Since(w0)
			b := b
			if err := sess.call("stream_send", len(b.events), func() error {
				return st.SendEncodedKind(ctx, b.kind, b.frame, len(b.events))
			}); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	// The receiver records its spans on its own tracer: the session root's
	// tracer belongs to the sender goroutine.
	rtr := newSpanTracer(true, tr.ids)
	rroot := rtr.begin("stream_receiver", prog, 0)
	var got []byte
	var recvErr error
	for i, b := range batches {
		var ds []server.Decision
		r0 := time.Now()
		err := rroot.call("stream_recv", len(b.events), func() error {
			var err error
			ds, err = st.Recv(ctx)
			return err
		})
		*recv += time.Since(r0)
		if err != nil {
			recvErr = fmt.Errorf("stream probe %s batch %d: %w", prog, i, err)
			t.fail(recvErr)
			break
		}
		got = encodeDecisions(got[:0], ds)
		if digest(got) != b.expect {
			t.fail(fmt.Errorf("stream probe %s/%s batch %d: decisions differ from the in-process policy set", prog, b.kind, i))
		} else {
			t.ok()
		}
		*events += int64(len(ds))
		*nbatches++
		credit <- struct{}{}
	}
	if recvErr != nil {
		st.Close()
		<-sendErr
		return recvErr
	}
	if err := <-sendErr; err != nil {
		st.Close()
		return err
	}
	err = st.Close()
	sess.end()
	rroot.end()
	*wall += time.Since(t0)
	tr.merge(rtr)
	return err
}

// probeSimulator times the simulator layers behind Figures 5 and 7: the
// MSSP baseline and timing runs on a synthesized program, and the
// experiments' per-benchmark tasks against the full parallel fan-out.
func probeSimulator(ctx context.Context, o options, tr *spanTracer, t *tally, m *measured) error {
	scale, err := strconv.ParseFloat(reproScale, 64)
	if err != nil {
		return err
	}
	figSeed := o.seed % reproSeeds
	runInstrs := uint64(float64(experiments.MSSPRunInstrs) * scale)
	var baseInstrs, runInstrsTotal uint64
	for _, bench := range []string{"gzip", "gcc"} {
		opts := program.DefaultSynthOptions()
		opts.Seed = figSeed
		opts.RunInstrs = runInstrs
		prog, err := program.Synthesize(bench, opts)
		if err != nil {
			return err
		}
		cfg := mssp.DefaultConfig()
		cfg.RunInstrs = runInstrs
		r := tr.begin("probe", bench, 0)
		var base float64
		r.call("mssp_baseline", 0, func() error {
			base, _ = mssp.Baseline(prog, runInstrs)
			return nil
		})
		cfg.PrecomputedBaseline = base
		var res mssp.Result
		r.call("mssp_run", 0, func() error {
			res = mssp.Run(prog, core.New(experiments.Config{}.Params()), cfg)
			return nil
		})
		r.end()
		if res.Speedup() <= 0 {
			t.fail(fmt.Errorf("mssp %s: speedup %v", bench, res.Speedup()))
		} else {
			t.ok()
		}
		baseInstrs += runInstrs
		runInstrsTotal += runInstrs
	}
	m.put("mssp.baseline_ns_per_instr", float64(tr.stat("mssp_baseline").dur)/float64(baseInstrs), "ns")
	m.put("mssp.run_ns_per_instr", float64(tr.stat("mssp_run").dur)/float64(runInstrsTotal), "ns")

	cfg := experiments.Config{Context: ctx, Scale: scale, Seed: figSeed}
	t0 := time.Now()
	if _, err := experiments.Fig5(cfg); err != nil {
		return err
	}
	if _, err := experiments.Fig7(cfg); err != nil {
		return err
	}
	wall := time.Since(t0)
	var sum, longest time.Duration
	for _, bench := range workload.Suite() {
		one := cfg
		one.Benchmarks = []string{bench}
		r := tr.begin("probe", bench, 0)
		for _, fig := range []struct {
			stage string
			run   func() error
		}{
			{"fig5_bench", func() error { _, err := experiments.Fig5(one); return err }},
			{"fig7_bench", func() error { _, err := experiments.Fig7(one); return err }},
		} {
			f0 := time.Now()
			if err := r.call(fig.stage, 0, fig.run); err != nil {
				return err
			}
			d := time.Since(f0)
			sum += d
			if d > longest {
				longest = d
			}
		}
		r.end()
	}
	m.put("experiments.bench_s_max", longest.Seconds(), "s")
	m.put("experiments.parallel_eff", sum.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
	m.note("experiments.wall_s", wall.Seconds(), "s", 1)
	return nil
}
