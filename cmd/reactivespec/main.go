// Command reactivespec regenerates the tables and figures of "Reactive
// Techniques for Controlling Software Speculation" (Zilles & Neelakantam,
// CGO 2005) from the synthetic workloads in this repository.
//
// Usage:
//
//	reactivespec [flags] <experiment>
//
// `reactivespec -h` lists the experiments in the order "all" runs them
// (≈10–15 minutes at full scale): the paper's tables and figures first, then
// the ablations and extensions, among them the decision-policy head-to-head,
// the fault-injection sweep and one sweep per Table 2 parameter.
//
// The timeline experiment runs one benchmark (default gcc; narrow with
// -bench) with the controller lifecycle trace sink attached and emits the
// per-branch state-transition timeline — as a summary table, as raw
// per-segment CSV spans, or as an SVG Gantt chart with -format svg.
//
// With -wal-dir, the timeline experiment replays a window of a reactived
// write-ahead log instead of a synthetic workload: pick the sequence window
// with -wal-from/-wal-to, the branch program with -wal-program
// (auto-detected for single-program logs; records of other speculation
// kinds are skipped), and match the daemon's -param-scale. The window
// replays through fresh controllers (a cold start: state and instruction
// counts are relative to the window, not the live table) and renders through
// the same table/CSV/SVG machinery.
//
// The directory does not need to be quiescent: the replay snapshots the
// segment list once at open, so it can point at a live daemon's (typically a
// replica's) -wal-dir. Records appended after the pass starts are excluded, a
// record mid-write at the tail reads as a reported clean truncation, and only
// a compaction racing the pass (a snapshot on the daemon deleting an unread
// segment) fails it — with an error saying to retry or raise -wal-from.
//
// The spans subcommand analyzes end-to-end batch span files written by
// reactived -trace-spans (and reactiveload -trace-spans):
//
//	reactivespec spans [flags] FILE...
//
// Several nodes' files (client, primary, replica) merge into one cross-node
// report keyed by trace ID: per-stage p50/p99/mean latency, each stage's
// share of traced batch wall time, how much of the batch window the named
// stages explain, and how many traces were observed end to end
// (ingest→wal→ship→follower). -format csv/svg render the same report as CSV
// or a bar chart; -require-chain makes the command fail unless at least one
// complete cross-node chain is present (the failover smoke's assertion).
//
// Flags:
//
//	-scale f        workload scale relative to the calibrated default (1.0)
//	-bench csv      comma-separated benchmark subset (default: all 12)
//	-seed n         workload seed (default 0, the calibrated seed)
//	-format f       "table" (default), "csv", or "svg" (the experiments with an SVG form)
//	-timeout d      cancel the run after this duration (e.g. 2m; 0 = none)
//	-intensities l  fault intensities for the chaos experiment (e.g. 0,0.2,0.8)
//	-wal-dir d      timeline only: replay a reactived write-ahead log under d
//	-wal-program p  branch program to replay from the WAL (default: auto-detect)
//	-wal-from n     first WAL sequence number to replay (default 0, the oldest)
//	-wal-to n       stop before this WAL sequence number (default 0, the end)
//	-param-scale k  the daemon's -param-scale, for WAL replay (default 10)
//	-require-chain  spans only: exit nonzero without a complete cross-node chain
//
// Exit status: 0 on success, 1 when an experiment fails (or the -timeout
// deadline cancels it), 2 on usage errors. Errors go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"reactivespec/internal/core"
	"reactivespec/internal/experiments"
	"reactivespec/internal/obs"
	"reactivespec/internal/server"
	"reactivespec/internal/workload"
)

// usageError marks errors caused by how the command was invoked (bad flags,
// unknown experiments) as opposed to experiment failures; main translates
// the distinction into exit codes 2 and 1.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode maps an error to the process exit status.
func exitCode(err error) int {
	var u usageError
	if errors.As(err, &u) {
		return 2
	}
	return 1
}

// errorMessage renders err for stderr. A -timeout expiry surfaces as
// context.DeadlineExceeded ("context deadline exceeded"), which on its own
// reads like an internal failure; name the cause so it is distinguishable
// from an experiment crash.
func errorMessage(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Sprintf("run cancelled: the -timeout deadline expired (%v)", err)
	}
	return err.Error()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reactivespec:", errorMessage(err))
		os.Exit(exitCode(err))
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reactivespec", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	scale := fs.Float64("scale", 1.0, "workload scale relative to the calibrated default")
	bench := fs.String("bench", "", "comma-separated benchmark subset (default: all 12)")
	seed := fs.Uint64("seed", 0, "workload seed")
	format := fs.String("format", "table", `output format: "table", "csv", or "svg" (figures only)`)
	timeout := fs.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
	intensitiesFlag := fs.String("intensities", "", "comma-separated fault intensities in [0,1] for chaos (default "+
		formatIntensities(experiments.DefaultChaosIntensities)+")")
	walDir := fs.String("wal-dir", "", "timeline only: replay a reactived write-ahead log under this directory")
	walProgram := fs.String("wal-program", "", "branch program to replay from the WAL (default: auto-detect)")
	walFrom := fs.Uint64("wal-from", 0, "first WAL sequence number to replay (0 = oldest retained)")
	walTo := fs.Uint64("wal-to", 0, "stop the WAL replay before this sequence number (0 = end of log)")
	paramScale := fs.Uint64("param-scale", 10, "the daemon's -param-scale, for WAL replay")
	requireChain := fs.Bool("require-chain", false,
		"spans only: exit nonzero unless at least one complete ingest→wal→ship→follower chain is present")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: reactivespec [flags] <experiment>\n"+
			"       reactivespec [flags] spans FILE...\n\nexperiments: %s\n\nflags:\n",
			strings.Join(append(verbNames(false), "all"), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	csv := false
	svg := false
	switch *format {
	case "table":
	case "csv":
		csv = true
	case "svg":
		svg = true
	default:
		return usagef("unknown format %q", *format)
	}
	// `spans` is the one multi-argument subcommand: it analyzes span JSONL
	// files written by reactived/reactiveload -trace-spans rather than
	// running an experiment, and several nodes' files are typically
	// concatenated into one report.
	if fs.Arg(0) == "spans" {
		if fs.NArg() < 2 {
			return usagef("spans: expected at least one span JSONL file (reactived -trace-spans)")
		}
		return runSpans(fs.Args()[1:], csv, svg, *requireChain, out)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return usagef("expected exactly one experiment, got %d args", fs.NArg())
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Context = ctx
	}
	if *bench != "" {
		for _, b := range strings.Split(*bench, ",") {
			b = strings.TrimSpace(b)
			if b == "" {
				continue
			}
			if _, err := workload.Build(b, workload.InputEval, workload.Options{}); err != nil {
				return usageError{err}
			}
			cfg.Benchmarks = append(cfg.Benchmarks, b)
		}
	}
	intensities, err := parseIntensities(*intensitiesFlag)
	if err != nil {
		return err
	}

	name := fs.Arg(0)
	e := env{cfg: cfg, intensities: intensities}
	if *walDir == "" && (*walProgram != "" || *walFrom != 0 || *walTo != 0) {
		return usagef("-wal-program, -wal-from and -wal-to require -wal-dir")
	}
	if *walDir != "" {
		if name != walVerb {
			return usagef("-wal-dir applies only to the %s experiment, not %q", walVerb, name)
		}
		if *walTo != 0 && *walTo <= *walFrom {
			return usagef("empty WAL window [%d, %d)", *walFrom, *walTo)
		}
		params := core.DefaultParams().Scaled(*paramScale)
		e.wal = &experiments.WALWindow{
			Dir:        *walDir,
			Program:    *walProgram,
			From:       *walFrom,
			To:         *walTo,
			Params:     params,
			ParamsHash: server.ParamsHash(params),
		}
	}
	i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == name })
	if svg {
		if i < 0 || verbs[i].svg == nil {
			return usagef("experiment %q has no SVG form (these do: %s)", name, strings.Join(verbNames(true), ", "))
		}
		return verbs[i].svg(e, out)
	}
	if name == "all" {
		for _, v := range verbs {
			fmt.Fprintf(out, "\n=== %s ===\n", v.name)
			if err := v.write(e, out, csv); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
		}
		return nil
	}
	if i < 0 {
		return usagef("unknown experiment %q", name)
	}
	return verbs[i].write(e, out, csv)
}

// runSpans loads one or more span JSONL files (several nodes' files combine
// into one cross-node report), builds the critical-path latency attribution,
// and renders it as a table, CSV, or SVG. With requireChain it fails unless
// at least one trace carries the full ingest→wal→ship→follower chain — the
// check the failover smoke gates on.
func runSpans(files []string, csv, svg, requireChain bool, out io.Writer) error {
	var spans []obs.Span
	dropped := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return usageError{fmt.Errorf("spans: %w", err)}
		}
		s, d, err := obs.LoadSpans(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("spans: %s: %w", path, err)
		}
		spans = append(spans, s...)
		dropped += d
	}
	rep := obs.BuildSpanReport(spans, dropped)
	if svg {
		if err := obs.SVGSpanReport(out, rep); err != nil {
			return err
		}
	} else if err := obs.WriteSpanReport(out, rep, csv); err != nil {
		return err
	}
	if requireChain && rep.CompleteChains == 0 {
		return fmt.Errorf("spans: no complete ingest→wal→ship→follower chain across %d traces (%d spans)",
			rep.Traces, rep.Spans)
	}
	return nil
}

// parseIntensities parses the -intensities flag; empty means the experiment
// default.
func parseIntensities(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, usagef("bad intensity %q: %v", part, err)
		}
		if v < 0 || v > 1 {
			return nil, usagef("intensity %v outside [0, 1]", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, usagef("empty -intensities list")
	}
	return out, nil
}

// formatIntensities renders intensities the way -intensities takes them.
func formatIntensities(intensities []float64) string {
	parts := make([]string, len(intensities))
	for i, v := range intensities {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// env is what a verb runs with: the experiment configuration plus the flags
// only one verb reads.
type env struct {
	cfg         experiments.Config
	intensities []float64              // chaos; nil runs the default grid
	wal         *experiments.WALWindow // timeline: replay this log window instead
}

// verb is one reactivespec experiment. write renders it as a table or, with
// csv, as CSV; svg renders it as an SVG chart and is nil when the experiment
// has no SVG form.
type verb struct {
	name  string
	write func(e env, out io.Writer, csv bool) error
	svg   func(e env, out io.Writer) error
}

// walVerb names the timeline experiment, the one verb -wal-dir applies to.
const walVerb = "timeline"

// verbs lists every experiment in the order "all" runs them.
var verbs = slices.Concat([]verb{
	{name: "table1", write: func(e env, out io.Writer, csv bool) error { return experiments.WriteTable1(out, e.cfg, csv) }},
	{name: "table2", write: func(e env, out io.Writer, _ bool) error { return writeTable2(out, e.cfg) }},
	fig("fig2", experiments.Fig2, experiments.WriteFig2, experiments.SVGFig2),
	fig("fig3", experiments.Fig3, experiments.WriteFig3, experiments.SVGFig3),
	fixed("fig4", fig4Text),
	fig("fig5", experiments.Fig5, experiments.WriteFig5, experiments.SVGFig5),
	fig("table3", experiments.Table3, experiments.WriteTable3, nil),
	fig("table4", table4, experiments.WriteTable4, nil),
	fig("fig6", experiments.Fig6, experiments.WriteFig6, experiments.SVGFig6),
	fig("fig7", experiments.Fig7, experiments.WriteFig7, experiments.SVGFig7),
	fig("fig8", experiments.Fig8, experiments.WriteFig8, experiments.SVGFig8),
	fig("fig9", experiments.Fig9, experiments.WriteFig9, nil),
	fixed("table5", table5Text),
	fig("averaging", averaging, experiments.WriteAveraging, nil),
	fig("flush", experiments.FlushPolicy, experiments.WriteFlush, nil),
	fig("generality", experiments.Generality, experiments.WriteGenerality, nil),
	fig("policies", experiments.Policies,
		withSummary(experiments.WritePolicies, experiments.PoliciesSummary, experiments.WritePoliciesSummary), nil),
	verbOf("chaos", chaos,
		withSummary(experiments.WriteChaos, experiments.ChaosSummary, experiments.WriteChaosSummary), experiments.SVGChaos),
}, sweepVerbs(), []verb{
	fig("sweep-task", experiments.TaskSweep, experiments.WriteTaskSweep, nil),
	fig("sweep-slaves", experiments.SlaveSweep, experiments.WriteSlaveSweep, nil),
	fig("replay", experiments.Replay, experiments.WriteReplay, nil),
	fig("tls", experiments.TLS, experiments.WriteTLS, nil),
	{name: "describe", write: describe},
	verbOf(walVerb, timeline, experiments.WriteTimeline, experiments.SVGTimeline),
})

// verbNames returns the experiment names in order, only those with an SVG
// form when svgOnly is set.
func verbNames(svgOnly bool) []string {
	var names []string
	for _, v := range verbs {
		if !svgOnly || v.svg != nil {
			names = append(names, v.name)
		}
	}
	return names
}

// verbOf builds a verb from an experiment that computes a result and
// renders it with write, or with svg when that is non-nil.
func verbOf[T any](name string, compute func(env) (T, error),
	write func(io.Writer, T, bool) error, svg func(io.Writer, T) error) verb {
	v := verb{name: name, write: func(e env, out io.Writer, csv bool) error {
		res, err := compute(e)
		if err != nil {
			return err
		}
		return write(out, res, csv)
	}}
	if svg != nil {
		v.svg = func(e env, out io.Writer) error {
			res, err := compute(e)
			if err != nil {
				return err
			}
			return svg(out, res)
		}
	}
	return v
}

// fig is verbOf for an experiment of the configuration alone, such as
// (experiments.FigN, experiments.WriteFigN, experiments.SVGFigN).
func fig[T any](name string, compute func(experiments.Config) (T, error),
	write func(io.Writer, T, bool) error, svg func(io.Writer, T) error) verb {
	return verbOf(name, func(e env) (T, error) { return compute(e.cfg) }, write, svg)
}

// fixed is a verb that prints the same text at every scale and format.
func fixed(name, text string) verb {
	return verb{name: name, write: func(_ env, out io.Writer, _ bool) error {
		_, err := io.WriteString(out, text)
		return err
	}}
}

// withSummary renders points, a blank line, then the summary of the points.
func withSummary[P, S any](write func(io.Writer, []P, bool) error, summarize func([]P) []S,
	writeSummary func(io.Writer, []S, bool) error) func(io.Writer, []P, bool) error {
	return func(out io.Writer, points []P, csv bool) error {
		if err := write(out, points, csv); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return writeSummary(out, summarize(points), csv)
	}
}

// sweepVerbs makes one sweep-<kind> verb per parameter sweep.
func sweepVerbs() []verb {
	vs := make([]verb, len(experiments.Sweeps))
	for i, s := range experiments.Sweeps {
		vs[i] = fig("sweep-"+s.Kind, func(cfg experiments.Config) ([]experiments.SweepPoint, error) {
			return experiments.Sweep(cfg, s)
		}, experiments.WriteSweep, nil)
	}
	return vs
}

func table4(cfg experiments.Config) ([]experiments.Table4Row, error) {
	points, err := experiments.Fig5(cfg)
	if err != nil {
		return nil, err
	}
	return experiments.Table4(points), nil
}

func averaging(cfg experiments.Config) ([]experiments.AveragingRow, error) {
	return experiments.ProfileAveraging(cfg, nil)
}

func chaos(e env) ([]experiments.ChaosPoint, error) {
	return experiments.Chaos(e.cfg, e.intensities)
}

func describe(e env, out io.Writer, csv bool) error {
	rows, spec, err := experiments.Describe(e.cfg, singleBench(e.cfg), workload.InputEval)
	if err != nil {
		return err
	}
	return experiments.WriteDescribe(out, spec, rows, csv)
}

// timeline traces one benchmark's controller lifecycle or, with -wal-dir,
// replays a window of a reactived write-ahead log through fresh controllers.
func timeline(e env) (*experiments.TimelineResult, error) {
	if e.wal == nil {
		return experiments.Timeline(e.cfg, singleBench(e.cfg), workload.InputEval)
	}
	res, trunc, err := experiments.TimelineFromWAL(*e.wal)
	if err != nil {
		return nil, err
	}
	if trunc != nil {
		fmt.Fprintf(os.Stderr, "reactivespec: wal tail %v\n", trunc)
	}
	return res, nil
}

// singleBench picks the benchmark for the experiments that run exactly one
// (describe, timeline): the -bench selection when it names a single
// benchmark, gcc otherwise.
func singleBench(cfg experiments.Config) string {
	if len(cfg.Benchmarks) == 1 {
		return cfg.Benchmarks[0]
	}
	return "gcc"
}

// writeTable2 prints the model parameters actually used (Table 2, scaled to
// the experiment regime) next to the paper's values.
func writeTable2(out io.Writer, cfg experiments.Config) error {
	p := cfg.Params()
	d := core.DefaultParams()
	rows := []struct {
		name        string
		used, paper uint64
	}{
		{name: "monitor period (executions)", used: p.MonitorPeriod, paper: d.MonitorPeriod},
		{name: "eviction threshold (+50 misp / -1 corr)", used: uint64(p.EvictThreshold), paper: uint64(d.EvictThreshold)},
		{name: "wait period (executions)", used: p.WaitPeriod, paper: d.WaitPeriod},
		{name: "optimization latency (instructions)", used: p.OptLatency, paper: d.OptLatency},
		{name: "oscillation limit (optimizations)", used: uint64(p.MaxOptimizations), paper: uint64(d.MaxOptimizations)},
	}
	fmt.Fprintf(out, "selection threshold: %.1f%% (paper: %.1f%%)\n",
		p.SelectThreshold*100, d.SelectThreshold*100)
	for _, r := range rows {
		fmt.Fprintf(out, "%-42s %12d (paper: %d)\n", r.name, r.used, r.paper)
	}
	return nil
}

// fig4Text is the classification state machine (the paper's Figure 4b).
const fig4Text = `Figure 4(b): reactive branch-behavior classifier

            +----------------------+
            |                      v
  [monitor] --(bias >= 99.5%)--> [biased] --(eviction counter full)--+
      |  ^                                                           |
      |  +-----------------------------------------------------------+
      |  ^
      +--(else)--> [unbiased] --(wait period elapses)--+
                       ^--------------------------------+
  (a sixth optimization attempt retires the branch permanently)
`

// table5Text is the simulated machine parameters (Table 5).
const table5Text = `Table 5: simulated CMP (as implemented in internal/cpu, internal/cache)

             leading core              trailing cores (x8)
pipeline     4-wide, 12-stage          2-wide, 8-stage
window       128 entries               24 entries
L1 cache     64KB 2-way 64B, 3cy       8KB 8-way 64B, 3cy
br. pred.    8Kb gshare, 32-entry RAS, 256-entry indirect (each core)
L2 cache     shared 1MB 8-way 64B, 10-cycle minimum
coherence    10-cycle minimum hop (uncongested)
memory       200-cycle minimum after L2
`
