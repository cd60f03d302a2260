// Command reactiveload is a seeded load generator for reactived: it replays
// the calibrated synthetic workloads (internal/workload), optionally
// perturbed by the fault injectors (internal/faults), against a running
// daemon at configurable concurrency and batch size, and reports throughput
// and batch-latency quantiles as JSON for regression tracking.
//
// Each worker drives its own program stream ("<bench>@<worker>"), so workers
// never contend on a program cursor and the daemon's decision sequence per
// program is deterministic. With -kind, workers round-robin over the listed
// speculation kinds (worker w drives kinds[w mod len]), exercising the
// daemon's kind-generic serving path: every POST names its kind on
// /v1/ingest, and every stream frame carries a kind tag. With -verify,
// every worker simultaneously runs an in-process controller (-policy
// selects which) over the identical event sequence and fails if any
// networked decision differs — the end-to-end closed-loop equivalence
// check, per kind. Verification first checks the daemon's
// controller-parameter hash, served kinds, and policy against /v1/info, so
// a misconfigured pairing fails up front with a typed mismatch instead of
// diverging mid-run.
//
// With -stream-addr, workers replace per-batch POSTs with one streaming
// ingest session each on the daemon's raw stream listener: batches pipeline over the session up to the granted window, and decisions
// come back on the same connection. Decisions are byte-identical to POST
// ingest — -verify works identically in both modes.
//
// With -failover, the run verifies a primary→replica failover end to end:
// workers drive the primary until it dies (SIGKILLed by this process once
// -failover-after-batches batches are acked when -failover-pid is set, or
// crashed externally), then one worker promotes the named follower (POST
// /v1/promote, retried), every worker asks it how many events of its own
// program and kind were replicated (/v1/cursor), and the stream resumes from
// exactly that point. The event stream and the mirror are pure functions of
// the worker's flags, so each worker replays its seeded source from the
// start up to the replica's cursor: decisions from before the crash, the
// re-sent overlap, and the post-failover tail all verify at their absolute
// stream indices against the same uncrashed in-process control — the
// bitwise-equivalence claim of the replication subsystem. The run fails if
// the primary survives to the end (the crash never happened, so failover was
// never exercised).
//
// Usage:
//
//	reactiveload -addr http://127.0.0.1:8344 [flags]
//
// Flags:
//
//	-addr url        daemon base URL (required)
//	-bench name      workload model to replay (default gzip)
//	-input id        workload input: eval or profile (default eval)
//	-scale f         event-count scale relative to the calibrated default (default 0.05)
//	-events n        hard cap on events per worker (0 = the scaled spec length)
//	-concurrency n   parallel workers (default 4)
//	-batch n         events per ingest batch (default 1024)
//	-frames n        trace frames per batch; events split contiguously (default 1)
//	-seed n          workload seed base; worker w uses seed+w (default 0)
//	-kind list       comma-separated speculation kinds; worker w drives kinds[w mod len]
//	                 (default branch; see trace.KindNames)
//	-policy name     decision policy the daemon runs, for -verify mirroring (default reactive)
//	-intensity f     fault-injection intensity in [0,1] (default 0)
//	-param-scale k   controller parameter scale for -verify; must match the daemon (default 10)
//	-verify          cross-check every decision against an in-process controller
//	-stream-addr a   use one streaming ingest session per worker on the daemon's raw
//	                 stream listener at host:port instead of per-batch POSTs
//	-window n        requested stream pipeline window in frames (0 = server default)
//	-failover url            follower base URL: verify failover by resuming against it (implies -verify)
//	-failover-pid n          primary pid to SIGKILL once the batch threshold is acked
//	-failover-after-batches n  acked batches across all workers before the kill
//	-dump-metrics    write the load generator's own metrics registry (Prometheus text) to stderr;
//	                 with -failover-pid, first echo the reactived_replication_* samples
//	                 (follower lag included) scraped from the primary's /metrics just before the kill
//	-trace-spans f   append sampled client-side span records (JSONL) to f; implies -trace-sample 1
//	-trace-sample n  sample 1 in n ingest batches for span tracing (0 = off)
//
// All latency accounting flows through one internal/obs registry: the JSON
// report's batch quantiles and its per-phase encode / network / decode
// breakdown are read back from the registry's histograms, and -dump-metrics
// exposes the registry itself. In stream mode the per-phase breakdown is
// absent (a pipelined session has no per-batch round trip to dissect); batch
// latency measures send-to-decision time per frame.
//
// Exit status: 0 on success, 1 on transport errors or verification failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"reactivespec/internal/core"
	"reactivespec/internal/faults"
	"reactivespec/internal/obs"
	"reactivespec/internal/server"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// Report is the JSON result written to stdout.
type Report struct {
	Benchmark   string  `json:"benchmark"`
	Input       string  `json:"input"`
	Mode        string  `json:"mode"` // "post", "stream" or "failover"
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"batch"`
	Frames      int     `json:"frames_per_batch"`
	Window      int     `json:"window,omitempty"` // granted stream window
	Intensity   float64 `json:"intensity"`
	Verified    bool    `json:"verified"`

	// Kinds lists the speculation kinds workers drove (round-robin by
	// worker index); Policy names the decision policy the -verify mirror
	// ran. Absent when the run was plain kind=branch / reactive.
	Kinds  []string `json:"kinds,omitempty"`
	Policy string   `json:"policy,omitempty"`

	Events     uint64  `json:"events"`
	Batches    uint64  `json:"batches"`
	ElapsedSec float64 `json:"elapsed_sec"`
	EventsPerS float64 `json:"events_per_sec"`

	BatchP50Ms float64 `json:"batch_latency_p50_ms"`
	BatchP90Ms float64 `json:"batch_latency_p90_ms"`
	BatchP99Ms float64 `json:"batch_latency_p99_ms"`

	// Phases breaks batch latency into client-side phases ("encode",
	// "network", "decode"), sourced from the obs registry histograms.
	// Empty in stream mode.
	Phases map[string]PhaseLatency `json:"phase_latency_ms,omitempty"`

	Verdicts  map[string]uint64 `json:"verdicts"`
	Decisions map[string]uint64 `json:"decisions"`

	// Failover describes the primary crash and the resume against the
	// promoted follower. Present only in -failover mode.
	Failover *FailoverReport `json:"failover,omitempty"`
}

// PhaseLatency is one phase's latency quantiles in milliseconds.
type PhaseLatency struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// instruments is the load generator's metrics registry: the batch-latency
// summary plus one histogram per ingest phase, shared by all workers.
type instruments struct {
	reg     *obs.Registry
	events  *obs.Counter
	batches *obs.Counter
	batch   *obs.Histogram
	encode  *obs.Histogram
	network *obs.Histogram
	decode  *obs.Histogram
}

func newInstruments() *instruments {
	reg := obs.NewRegistry()
	lat := func(name, help string) *obs.Histogram {
		return reg.NewHistogram(name, help, 1e-6, 60, 30, 0.5, 0.9, 0.99)
	}
	return &instruments{
		reg:     reg,
		events:  reg.NewCounter("reactiveload_events_total", "Events sent to the daemon."),
		batches: reg.NewCounter("reactiveload_batches_total", "Ingest batches sent."),
		batch:   lat("reactiveload_batch_seconds", "Ingest batch round-trip latency."),
		encode:  lat("reactiveload_encode_seconds", "Client time encoding trace frames."),
		network: lat("reactiveload_network_seconds", "HTTP round trip, including reading the response body."),
		decode:  lat("reactiveload_decode_seconds", "Client time decoding decision bytes."),
	}
}

// phase reads one histogram back as millisecond quantiles.
func phase(h *obs.Histogram) PhaseLatency {
	return PhaseLatency{
		P50Ms: h.Quantile(0.5) * 1e3,
		P90Ms: h.Quantile(0.9) * 1e3,
		P99Ms: h.Quantile(0.99) * 1e3,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reactiveload:", err)
		os.Exit(1)
	}
}

// workerResult is one worker's contribution to the report.
type workerResult struct {
	events    uint64
	batches   uint64
	acked     uint64    // high-water mark: absolute index past the last tallied event
	window    int       // granted stream window (stream mode)
	verdicts  [3]uint64 // indexed by core.Verdict
	decisions [4]uint64 // indexed by core.State
	err       error
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reactiveload", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", "", "daemon base URL (required), e.g. http://127.0.0.1:8344")
	bench := fs.String("bench", "gzip", "workload model to replay")
	input := fs.String("input", "eval", `workload input: "eval" or "profile"`)
	scale := fs.Float64("scale", 0.05, "event-count scale relative to the calibrated default")
	events := fs.Uint64("events", 0, "hard cap on events per worker (0 = the scaled spec length)")
	concurrency := fs.Int("concurrency", 4, "parallel workers")
	batch := fs.Int("batch", 1024, "events per ingest batch")
	frames := fs.Int("frames", 1, "trace frames per batch; events split contiguously")
	seed := fs.Uint64("seed", 0, "workload seed base; worker w uses seed+w")
	kindList := fs.String("kind", trace.KindBranch.String(),
		"comma-separated speculation kinds; worker w drives kinds[w mod len]")
	policy := fs.String("policy", core.PolicyReactive,
		"decision policy the daemon runs, for -verify mirroring")
	intensity := fs.Float64("intensity", 0, "fault-injection intensity in [0,1]")
	paramScale := fs.Uint64("param-scale", 10, "controller parameter scale for -verify (must match the daemon)")
	verify := fs.Bool("verify", false, "cross-check every decision against an in-process controller")
	streamAddr := fs.String("stream-addr", "",
		"use one streaming ingest session per worker on the daemon's raw stream listener at this host:port instead of per-batch POSTs")
	window := fs.Int("window", 0, "requested stream pipeline window in frames (0 = server default)")
	failoverURL := fs.String("failover", "",
		"follower base URL: verify failover by promoting it when the primary dies and resuming against it (implies -verify)")
	failoverPid := fs.Int("failover-pid", 0,
		"primary daemon pid to SIGKILL once -failover-after-batches batches are acked (0 = the primary is crashed externally)")
	failoverAfter := fs.Uint64("failover-after-batches", 0,
		"acked batches across all workers before -failover-pid is killed")
	dumpMetrics := fs.Bool("dump-metrics", false,
		"write the load generator's own metrics registry (Prometheus text) to stderr after the run; "+
			"with -failover-pid, first echo the primary's replication samples scraped just before the kill")
	traceSpans := fs.String("trace-spans", "",
		"append sampled client-side span records (JSONL) to this file; implies -trace-sample 1 unless set")
	traceSample := fs.Int("trace-sample", 0,
		"sample 1 in N ingest batches for span tracing (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *concurrency < 1 || *batch < 1 || *frames < 1 {
		return fmt.Errorf("-concurrency, -batch and -frames must be at least 1")
	}
	if *intensity < 0 || *intensity > 1 {
		return fmt.Errorf("-intensity %v outside [0, 1]", *intensity)
	}
	if *window < 0 {
		return fmt.Errorf("-window must be non-negative")
	}
	var kinds []trace.Kind
	for _, name := range strings.Split(*kindList, ",") {
		k, err := trace.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return fmt.Errorf("-kind: %w", err)
		}
		kinds = append(kinds, k)
	}
	if !core.ValidPolicy(*policy) {
		return fmt.Errorf("-policy %q is not registered (want one of %v)", *policy, core.PolicyNames())
	}
	streamMode := *streamAddr != ""
	if *frames != 1 && streamMode {
		return fmt.Errorf("-frames does not apply to -stream-addr (each batch is one frame on the session)")
	}
	if *failoverURL == "" && (*failoverPid != 0 || *failoverAfter != 0) {
		return fmt.Errorf("-failover-pid and -failover-after-batches require -failover")
	}
	if *failoverURL != "" {
		if streamMode {
			return fmt.Errorf("-failover drives per-batch POSTs; it does not combine with -stream-addr")
		}
		if *frames != 1 {
			return fmt.Errorf("-frames does not apply to -failover")
		}
		if *failoverPid < 0 {
			return fmt.Errorf("-failover-pid must be a positive pid, or 0 when the primary is crashed externally")
		}
		if *failoverPid > 0 && *failoverAfter == 0 {
			return fmt.Errorf("-failover-pid requires -failover-after-batches > 0 (when should the primary die?)")
		}
		if *failoverPid == 0 && *failoverAfter != 0 {
			return fmt.Errorf("-failover-after-batches requires -failover-pid (which process should die?)")
		}
		*verify = true
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be non-negative")
	}
	var inputID workload.InputID
	switch *input {
	case "eval":
		inputID = workload.InputEval
	case "profile":
		inputID = workload.InputProfile
	default:
		return fmt.Errorf("unknown -input %q (want eval or profile)", *input)
	}
	if _, err := workload.Build(*bench, inputID, workload.Options{}); err != nil {
		return err
	}
	ctx := context.Background()
	params := core.DefaultParams().Scaled(*paramScale)
	sampleN := *traceSample
	if *traceSpans != "" && sampleN == 0 {
		sampleN = 1
	}
	var tracer *obs.Tracer
	if sampleN > 0 {
		tracer = obs.NewTracer("loadgen", sampleN)
		if *traceSpans != "" {
			f, err := os.OpenFile(*traceSpans, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("opening -trace-spans: %w", err)
			}
			defer f.Close()
			tracer.SetOutput(f)
			defer tracer.Close()
		}
	}
	client := server.Connect(*addr, server.WithTracer(tracer))
	if _, err := client.Healthz(ctx); err != nil {
		return fmt.Errorf("daemon not reachable at %s: %w", *addr, err)
	}
	if *verify {
		// Fail configuration skew up front: a daemon at a different
		// -param-scale or -policy would diverge from the mirror on the
		// first monitoring-period boundary anyway, and a kind the daemon
		// does not serve would fail mid-run. The /v1/info advertisement
		// checks fire first so the operator sees "kind/policy" rather
		// than a bare hash mismatch.
		info, err := client.Info(ctx)
		if err != nil {
			return err
		}
		if err := checkInfoKindsPolicy(info, kinds, *policy); err != nil {
			return err
		}
		if _, err := client.VerifyParams(ctx, server.ParamsPolicyHash(params, *policy)); err != nil {
			return err
		}
	}
	var fc *failoverCtl
	if *failoverURL != "" {
		follower := server.Connect(*failoverURL, server.WithTracer(tracer))
		if _, err := follower.Healthz(ctx); err != nil {
			return fmt.Errorf("follower not reachable at %s: %w", *failoverURL, err)
		}
		if _, err := follower.VerifyParams(ctx, server.ParamsPolicyHash(params, *policy)); err != nil {
			return fmt.Errorf("follower at %s: %w", *failoverURL, err)
		}
		info, err := follower.Info(ctx)
		if err != nil {
			return fmt.Errorf("follower at %s: %w", *failoverURL, err)
		}
		if info.Mode != "replica" {
			return fmt.Errorf("-failover target %s is %q, not a replica — it has nothing to promote", *failoverURL, info.Mode)
		}
		fc = newFailoverCtl(follower, *failoverPid, *failoverAfter)
		if *dumpMetrics && *failoverPid > 0 {
			fc.primary = client
		}
	}

	ins := newInstruments()
	results := make([]workerResult, *concurrency)
	cfgs := make([]workerConfig, *concurrency)
	for w := range cfgs {
		cfgs[w] = workerConfig{
			program:    fmt.Sprintf("%s@%d", *bench, w),
			bench:      *bench,
			input:      inputID,
			scale:      *scale,
			events:     *events,
			batch:      *batch,
			frames:     *frames,
			seed:       *seed + uint64(w),
			kind:       kinds[w%len(kinds)],
			policy:     *policy,
			intensity:  *intensity,
			params:     params,
			verify:     *verify,
			window:     *window,
			streamAddr: *streamAddr,
			tracer:     tracer,
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := cfgs[w]
			switch {
			case fc != nil:
				results[w] = runFailoverWorker(ctx, client, ins, cfg, fc)
			case streamMode:
				results[w] = runStreamWorker(ctx, client, ins, cfg)
			default:
				results[w] = runWorker(ctx, client, ins, cfg)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	mode := "post"
	if streamMode {
		mode = "stream"
	}
	if fc != nil {
		mode = "failover"
	}
	rep := Report{
		Benchmark:   *bench,
		Input:       inputID.String(),
		Mode:        mode,
		Concurrency: *concurrency,
		Batch:       *batch,
		Frames:      *frames,
		Intensity:   *intensity,
		Verified:    *verify,
		ElapsedSec:  elapsed.Seconds(),
		Verdicts:    map[string]uint64{},
		Decisions:   map[string]uint64{},
	}
	if len(kinds) > 1 || kinds[0] != trace.KindBranch {
		for _, k := range kinds {
			rep.Kinds = append(rep.Kinds, k.String())
		}
	}
	if *policy != core.PolicyReactive {
		rep.Policy = *policy
	}
	for w, r := range results {
		if r.err != nil {
			return fmt.Errorf("worker %d: %w", w, r.err)
		}
		rep.Events += r.events
		rep.Batches += r.batches
		if r.window > rep.Window {
			rep.Window = r.window
		}
		for v, n := range r.verdicts {
			rep.Verdicts[core.Verdict(v).String()] += n
		}
		for st, n := range r.decisions {
			rep.Decisions[core.State(st).String()] += n
		}
	}
	if fc != nil {
		if fc.resumed.Load() == 0 {
			return fmt.Errorf("the primary survived the whole run, so failover was never exercised " +
				"(grow the workload, or lower -failover-after-batches)")
		}
		rep.Failover = &FailoverReport{
			Promoted:        true,
			KilledAtBatches: fc.killedAt.Load(),
			PromotedWalSeq:  fc.res.LastAppliedSeq,
			WorkersResumed:  int(fc.resumed.Load()),
			ResentEvents:    fc.resent.Load(),
			AppliedUnacked:  fc.appliedUnacked.Load(),
		}
	}
	if elapsed > 0 {
		rep.EventsPerS = float64(rep.Events) / elapsed.Seconds()
	}
	rep.BatchP50Ms = ins.batch.Quantile(0.5) * 1e3
	rep.BatchP90Ms = ins.batch.Quantile(0.9) * 1e3
	rep.BatchP99Ms = ins.batch.Quantile(0.99) * 1e3
	if !streamMode {
		rep.Phases = map[string]PhaseLatency{
			"encode":  phase(ins.encode),
			"network": phase(ins.network),
			"decode":  phase(ins.decode),
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *dumpMetrics {
		if fc != nil && fc.primary != nil {
			if fc.killErr != nil {
				fmt.Fprintf(os.Stderr, "# scraping the primary's /metrics at kill time: %v\n", fc.killErr)
			} else {
				fmt.Fprintf(os.Stderr, "# primary replication metrics at kill time (%s/metrics):\n", *addr)
				for _, line := range fc.killSamples {
					fmt.Fprintf(os.Stderr, "# %s\n", line)
				}
			}
		}
		return ins.reg.WritePrometheus(os.Stderr)
	}
	return nil
}

type workerConfig struct {
	program    string
	bench      string
	input      workload.InputID
	scale      float64
	events     uint64
	batch      int
	frames     int
	seed       uint64
	kind       trace.Kind
	policy     string
	intensity  float64
	params     core.Params
	verify     bool
	window     int
	streamAddr string
	tracer     *obs.Tracer
}

// buildEventStream assembles one worker's seeded event stream: workload
// generator, optional fault injection, optional event cap.
func buildEventStream(cfg workerConfig) (trace.Stream, error) {
	spec, err := workload.Build(cfg.bench, cfg.input, workload.Options{
		EventScale: workload.DefaultEventScale * cfg.scale,
		Seed:       cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	var stream trace.Stream = workload.NewGenerator(spec)
	if cfg.intensity > 0 {
		mix := faults.IntensityMix(cfg.intensity, spec.Events,
			trace.BranchID(len(spec.Branches)), spec.Seed^0x10adc1e4)
		stream = mix.Apply(stream, spec.Events)
	}
	if cfg.events > 0 {
		stream = trace.Head(stream, cfg.events)
	}
	return stream, nil
}

// mirror is the -verify cross-check: an in-process controller fed the
// identical event sequence, whose decisions accept compares one by one
// against the daemon's. A nil *mirror checks nothing.
type mirror struct {
	ctl   *core.Controller
	instr uint64
}

func newMirror(cfg workerConfig) (*mirror, error) {
	if !cfg.verify {
		return nil, nil
	}
	ctl, err := core.NewPolicySet(cfg.policy, cfg.params)
	if err != nil {
		return nil, err
	}
	return &mirror{ctl: ctl}, nil
}

// step feeds one event to the mirror controller and returns its decision.
func (m *mirror) step(ev trace.Event) server.Decision {
	m.instr += uint64(ev.Gap)
	v, st, dir, live := m.ctl.OnEvent(ev.Branch, ev.Taken, m.instr)
	return server.Decision{Verdict: v, State: st, Dir: dir, Live: live}
}

// checkInfoKindsPolicy checks the daemon's /v1/info kind and policy
// advertisement against what this run will drive.
func checkInfoKindsPolicy(info server.Info, kinds []trace.Kind, policy string) error {
	for _, k := range kinds {
		if !slices.Contains(info.Kinds, k.String()) {
			return fmt.Errorf("daemon does not serve kind %s (advertises %v; run it with -kinds %s)",
				k, info.Kinds, k)
		}
	}
	if info.Policy != policy {
		return fmt.Errorf("daemon runs policy %s, the -verify mirror would run %s (start reactiveload with -policy %s, or the daemon with -policy %s)",
			info.Policy, policy, info.Policy, policy)
	}
	return nil
}

// source is one worker's seeded event source: its buildEventStream stream,
// the -verify mirror and the absolute index of the next event to send.
// buildEventStream and newMirror are pure functions of the worker config, so
// a fresh source skipped to event k replays, bit for bit, what any other
// source of that config yields from k on; failover resumes that way. next
// touches only the stream and accept only the mirror and the tally, so a
// stream worker's sender and receiver may call them concurrently.
type source struct {
	cfg    workerConfig
	stream trace.Stream
	mir    *mirror
	off    uint64        // absolute index of the next event next returns
	res    *workerResult // the tally accept folds verified batches into
}

func newSource(cfg workerConfig, res *workerResult) (*source, error) {
	stream, err := buildEventStream(cfg)
	if err != nil {
		return nil, err
	}
	mir, err := newMirror(cfg)
	if err != nil {
		return nil, err
	}
	return &source{cfg: cfg, stream: stream, mir: mir, res: res}, nil
}

// next fills buf with the next batch of up to cfg.batch events and returns it
// with the absolute index of its first event. An empty batch means the stream
// has ended.
func (src *source) next(buf []trace.Event) (uint64, []trace.Event) {
	off, buf := src.off, buf[:0]
	for len(buf) < src.cfg.batch {
		ev, ok := src.stream.Next()
		if !ok {
			break
		}
		buf = append(buf, ev)
	}
	src.off += uint64(len(buf))
	return off, buf
}

// accept steps the mirror over the batch events, whose first event sits at
// absolute index off, checks the daemon's decisions ds against it, and
// tallies them. Events below the result's acked
// high-water mark were already counted — a failover resume re-sends them —
// so they count toward the batch but not the event or decision totals.
func (src *source) accept(off uint64, events []trace.Event, ds []server.Decision) error {
	if len(ds) != len(events) {
		return fmt.Errorf("%d decisions for %d events", len(ds), len(events))
	}
	if src.mir != nil {
		for i, ev := range events {
			if want := src.mir.step(ev); ds[i] != want {
				return fmt.Errorf("decision mismatch at event %d of %s kind %s (unit %d): daemon %v, in-process %v"+
					" (is the daemon running with -param-scale %d and -policy %s?)",
					off+uint64(i), src.cfg.program, src.cfg.kind, ev.Branch, ds[i], want,
					paramScaleHint(src.cfg.params), src.cfg.policy)
			}
		}
	}
	res := src.res
	res.batches++
	for i, d := range ds {
		if off+uint64(i) < res.acked {
			continue
		}
		res.events++
		res.verdicts[d.Verdict]++
		res.decisions[d.State]++
	}
	res.acked = max(res.acked, off+uint64(len(ds)))
	return nil
}

// skip fast-forwards the stream and steps the mirror over the next n events
// without sending them. It fails if the stream ends first.
func (src *source) skip(n uint64) error {
	for ; n > 0; n-- {
		ev, ok := src.stream.Next()
		if !ok {
			return fmt.Errorf("event %d is beyond the stream of %s, which ends at event %d",
				src.off+n, src.cfg.program, src.off)
		}
		if src.mir != nil {
			src.mir.step(ev)
		}
		src.off++
	}
	return nil
}

// post drives the source to its end over per-batch POSTs to cl, verifying and
// tallying every answered batch and calling acked (when non-nil) after each.
// A failed POST ends the run with lost set, so failover can tell a lost
// daemon from a verification failure, which comes back as err.
func (src *source) post(ctx context.Context, cl *server.Client, ins *instruments, acked func()) (lost, err error) {
	buf := make([]trace.Event, 0, src.cfg.batch)
	for {
		off, batch := src.next(buf)
		if len(batch) == 0 {
			return nil, nil
		}
		ds, err := postBatch(ctx, cl, ins, src.cfg, batch)
		if err != nil {
			return err, nil
		}
		if err := src.accept(off, batch, ds); err != nil {
			return nil, err
		}
		if acked != nil {
			acked()
		}
	}
}

// runWorker replays one seeded stream against the daemon over per-batch
// POSTs.
func runWorker(ctx context.Context, client *server.Client, ins *instruments, cfg workerConfig) workerResult {
	var res workerResult
	src, err := newSource(cfg, &res)
	if err != nil {
		res.err = err
		return res
	}
	lost, err := src.post(ctx, client, ins, nil)
	if err == nil {
		err = lost
	}
	res.err = err
	return res
}

// postBatch posts one batch as cfg.frames contiguous frames of cfg.kind,
// records its latency and phase timings in ins, and returns the concatenated
// per-event decisions. A *server.BatchTruncatedError or a per-frame
// rejection propagates as-is, so the operator sees the "applied N of M
// frames" diagnostic rather than a silent drop.
func postBatch(ctx context.Context, client *server.Client, ins *instruments, cfg workerConfig, batch []trace.Event) ([]server.Decision, error) {
	frames := make([][]trace.Event, 0, cfg.frames)
	per := (len(batch) + cfg.frames - 1) / cfg.frames
	for off := 0; off < len(batch); off += per {
		frames = append(frames, batch[off:min(off+per, len(batch))])
	}
	t0 := time.Now()
	results, tm, err := client.IngestFramesKindTimed(ctx, cfg.program, cfg.kind, frames)
	if err != nil {
		return nil, err
	}
	ds := make([]server.Decision, 0, len(batch))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("frame %d of %d: %w", i, len(results), r.Err)
		}
		ds = append(ds, r.Decisions...)
	}
	ins.batch.Observe(time.Since(t0).Seconds())
	ins.encode.Observe(tm.Encode.Seconds())
	ins.network.Observe(tm.Network.Seconds())
	ins.decode.Observe(tm.Decode.Seconds())
	ins.batches.Inc()
	ins.events.Add(uint64(len(batch)))
	return ds, nil
}

// runStreamWorker replays one seeded stream over a single streaming ingest
// session: a sender goroutine pipelines batches up to the granted window
// while the receiver (this goroutine) drains decision frames, verifies them
// against the mirror, and measures per-frame send-to-decision latency.
func runStreamWorker(ctx context.Context, client *server.Client, ins *instruments, cfg workerConfig) workerResult {
	var res workerResult
	src, err := newSource(cfg, &res)
	if err != nil {
		res.err = err
		return res
	}

	var opts []server.StreamOption
	if cfg.window > 0 {
		opts = append(opts, server.WithStreamWindow(cfg.window))
	}
	if cfg.tracer != nil {
		opts = append(opts, server.WithStreamTracer(cfg.tracer))
	}
	// The stream listener has no /v1/info; resolve the hash over HTTP.
	info, err := client.Info(ctx)
	if err != nil {
		res.err = fmt.Errorf("resolving params hash for -stream-addr: %w", err)
		return res
	}
	hash, err := server.ParseInfoParamsHash(info)
	if err != nil {
		res.err = err
		return res
	}
	st, err := server.DialStream(ctx, cfg.streamAddr, cfg.program, hash, opts...)
	if err != nil {
		res.err = err
		return res
	}
	res.window = st.Window()

	// inflight pairs each sent batch with its offset and send timestamp; the
	// receiver matches them to decision frames, which arrive in send order.
	// Capacity beyond the window keeps the sender from ever blocking on this
	// channel rather than on window credit.
	type inflight struct {
		off    uint64
		events []trace.Event
		sentAt time.Time
	}
	pending := make(chan inflight, st.Window()+1)
	sendErr := make(chan error, 1)
	go func() {
		defer close(pending)
		for {
			// Each batch gets its own buffer: it belongs to the receiver
			// until its decisions arrive.
			off, evs := src.next(make([]trace.Event, 0, cfg.batch))
			if len(evs) == 0 {
				sendErr <- nil
				return
			}
			t0 := time.Now()
			if err := st.SendKind(ctx, cfg.kind, evs); err != nil {
				sendErr <- err
				return
			}
			pending <- inflight{off: off, events: evs, sentAt: t0}
		}
	}()

	for inf := range pending {
		ds, err := st.Recv(ctx)
		if err != nil {
			res.err = fmt.Errorf("receiving decisions: %w", err)
			break
		}
		ins.batch.Observe(time.Since(inf.sentAt).Seconds())
		if res.err = src.accept(inf.off, inf.events, ds); res.err != nil {
			break
		}
		ins.batches.Inc()
		ins.events.Add(uint64(len(inf.events)))
	}
	if res.err != nil {
		// The receive loop broke early. Close first: it discards the
		// undelivered decision frames, which unwedges the stream reader and
		// fails any Send blocked on window credit — only then is the sender
		// guaranteed to finish.
		go func() {
			for range pending {
			}
		}()
		st.Close()
		<-sendErr
		return res
	}
	if err := <-sendErr; err != nil {
		res.err = err
		st.Close()
		return res
	}
	res.err = st.Close()
	return res
}

// paramScaleHint recovers the scale factor for the mismatch diagnostic.
func paramScaleHint(p core.Params) uint64 {
	d := core.DefaultParams()
	if p.MonitorPeriod == 0 {
		return 1
	}
	return d.MonitorPeriod / p.MonitorPeriod
}
