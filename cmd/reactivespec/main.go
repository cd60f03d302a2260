// Command reactivespec regenerates the tables and figures of "Reactive
// Techniques for Controlling Software Speculation" (Zilles & Neelakantam,
// CGO 2005) from the synthetic workloads in this repository.
//
// Usage:
//
//	reactivespec [flags] <experiment>
//
// Paper artifacts: table1, table2, fig2, fig3, fig4, fig5, table3, table4,
// fig6, fig7, fig8, fig9, table5. Ablations and extensions: averaging,
// flush, generality, policies (the reactive / selftrain / probweight
// decision-policy head-to-head), replay, describe, timeline, chaos,
// sweep-monitor, sweep-evict, sweep-wait, sweep-oscillation, sweep-step,
// sweep-threshold, sweep-task, sweep-slaves.
// "all" runs everything (≈10–15 minutes at full scale).
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
//	-format f       "table" (default), "csv", or "svg" (figures 2/3/5/6/7/8, chaos, timeline)
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
	intensitiesFlag := fs.String("intensities", "", "comma-separated fault intensities in [0,1] for chaos (default 0,0.05,0.1,0.2,0.4,0.8)")
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
			strings.Join(experimentNames(), " "))
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
	if *walDir == "" && (*walProgram != "" || *walFrom != 0 || *walTo != 0) {
		return usagef("-wal-program, -wal-from and -wal-to require -wal-dir")
	}
	if *walDir != "" {
		if name != "timeline" {
			return usagef("-wal-dir applies only to the timeline experiment, not %q", name)
		}
		if *walTo != 0 && *walTo <= *walFrom {
			return usagef("empty WAL window [%d, %d)", *walFrom, *walTo)
		}
		params := core.DefaultParams().Scaled(*paramScale)
		res, trunc, err := experiments.TimelineFromWAL(experiments.WALWindow{
			Dir:        *walDir,
			Program:    *walProgram,
			From:       *walFrom,
			To:         *walTo,
			Params:     params,
			ParamsHash: server.ParamsHash(params),
		})
		if err != nil {
			return err
		}
		if trunc != nil {
			fmt.Fprintf(os.Stderr, "reactivespec: wal tail %v\n", trunc)
		}
		if svg {
			return experiments.SVGTimeline(out, res)
		}
		return experiments.WriteTimeline(out, res, csv)
	}
	if svg {
		return dispatchSVG(name, cfg, intensities, out)
	}
	if name == "all" {
		for _, n := range experimentNames() {
			if n == "all" {
				continue
			}
			fmt.Fprintf(out, "\n=== %s ===\n", n)
			if err := dispatch(n, cfg, csv, intensities, out); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	return dispatch(name, cfg, csv, intensities, out)
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

// dispatchSVG renders the figures that have SVG forms.
func dispatchSVG(name string, cfg experiments.Config, intensities []float64, out io.Writer) error {
	switch name {
	case "chaos":
		points, err := experiments.Chaos(cfg, intensities)
		if err != nil {
			return err
		}
		return experiments.SVGChaos(out, points)
	case "fig2":
		series, err := experiments.Fig2(cfg)
		if err != nil {
			return err
		}
		return experiments.SVGFig2(out, series)
	case "fig3":
		series, err := experiments.Fig3(cfg)
		if err != nil {
			return err
		}
		return experiments.SVGFig3(out, series)
	case "fig5":
		points, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		return experiments.SVGFig5(out, points)
	case "fig6":
		res, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		return experiments.SVGFig6(out, res)
	case "fig7":
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		return experiments.SVGFig7(out, rows)
	case "fig8":
		rows, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		return experiments.SVGFig8(out, rows)
	case "timeline":
		res, err := experiments.Timeline(cfg, singleBench(cfg), workload.InputEval)
		if err != nil {
			return err
		}
		return experiments.SVGTimeline(out, res)
	default:
		return usagef("experiment %q has no SVG form (figures 2, 3, 5, 6, 7, 8, chaos and timeline do)", name)
	}
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

func experimentNames() []string {
	return []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5", "table3",
		"table4", "fig6", "fig7", "fig8", "fig9", "table5",
		"averaging", "flush", "generality", "policies", "chaos", "sweep-monitor", "sweep-evict",
		"sweep-wait", "sweep-oscillation", "sweep-step", "sweep-threshold",
		"sweep-task", "sweep-slaves", "replay", "tls", "describe", "timeline", "all"}
}

func dispatch(name string, cfg experiments.Config, csv bool, intensities []float64, out io.Writer) error {
	switch name {
	case "chaos":
		points, err := experiments.Chaos(cfg, intensities)
		if err != nil {
			return err
		}
		if err := experiments.WriteChaos(out, points, csv); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return experiments.WriteChaosSummary(out, experiments.ChaosSummary(points), csv)
	case "table1":
		return experiments.WriteTable1(out, cfg, csv)
	case "table2":
		return writeTable2(out, cfg)
	case "fig2":
		series, err := experiments.Fig2(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig2(out, series, csv)
	case "fig3":
		series, err := experiments.Fig3(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig3(out, series, csv)
	case "fig4":
		return writeFig4(out)
	case "fig5":
		points, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig5(out, points, csv)
	case "table3":
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteTable3(out, rows, csv)
	case "table4":
		points, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteTable4(out, experiments.Table4(points), csv)
	case "fig6":
		res, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig6(out, res, csv)
	case "fig7":
		rows, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig7(out, rows, csv)
	case "fig8":
		rows, err := experiments.Fig8(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig8(out, rows, csv)
	case "fig9":
		res, err := experiments.Fig9(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFig9(out, res, csv)
	case "table5":
		return writeTable5(out)
	case "averaging":
		rows, err := experiments.ProfileAveraging(cfg, nil)
		if err != nil {
			return err
		}
		return experiments.WriteAveraging(out, rows, csv)
	case "flush":
		rows, err := experiments.FlushPolicy(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteFlush(out, rows, csv)
	case "replay":
		rows, err := experiments.Replay(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteReplay(out, rows, csv)
	case "tls":
		rows, err := experiments.TLS(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteTLS(out, rows, csv)
	case "describe":
		rows, spec, err := experiments.Describe(cfg, singleBench(cfg), workload.InputEval)
		if err != nil {
			return err
		}
		return experiments.WriteDescribe(out, spec, rows, csv)
	case "timeline":
		res, err := experiments.Timeline(cfg, singleBench(cfg), workload.InputEval)
		if err != nil {
			return err
		}
		return experiments.WriteTimeline(out, res, csv)
	case "sweep-slaves":
		rows, err := experiments.SlaveSweep(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteSlaveSweep(out, rows, csv)
	case "sweep-task":
		rows, err := experiments.TaskSweep(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteTaskSweep(out, rows, csv)
	case "generality":
		rows, err := experiments.Generality(cfg)
		if err != nil {
			return err
		}
		return experiments.WriteGenerality(out, rows, csv)
	case "policies":
		points, err := experiments.Policies(cfg)
		if err != nil {
			return err
		}
		if err := experiments.WritePolicies(out, points, csv); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return experiments.WritePoliciesSummary(out, experiments.PoliciesSummary(points), csv)
	case "sweep-monitor", "sweep-evict", "sweep-wait", "sweep-oscillation",
		"sweep-step", "sweep-threshold":
		kind := experiments.SweepKind(strings.TrimPrefix(name, "sweep-"))
		points, err := experiments.Sweep(cfg, kind)
		if err != nil {
			return err
		}
		return experiments.WriteSweep(out, points, csv)
	default:
		return usagef("unknown experiment %q", name)
	}
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

// writeFig4 prints the classification state machine (the paper's Figure 4b).
func writeFig4(out io.Writer) error {
	_, err := fmt.Fprint(out, `Figure 4(b): reactive branch-behavior classifier

            +----------------------+
            |                      v
  [monitor] --(bias >= 99.5%)--> [biased] --(eviction counter full)--+
      |  ^                                                           |
      |  +-----------------------------------------------------------+
      |  ^
      +--(else)--> [unbiased] --(wait period elapses)--+
                       ^--------------------------------+
  (a sixth optimization attempt retires the branch permanently)
`)
	return err
}

// writeTable5 prints the simulated machine parameters (Table 5).
func writeTable5(out io.Writer) error {
	_, err := fmt.Fprint(out, `Table 5: simulated CMP (as implemented in internal/cpu, internal/cache)

             leading core              trailing cores (x8)
pipeline     4-wide, 12-stage          2-wide, 8-stage
window       128 entries               24 entries
L1 cache     64KB 2-way 64B, 3cy       8KB 8-way 64B, 3cy
br. pred.    8Kb gshare, 32-entry RAS, 256-entry indirect (each core)
L2 cache     shared 1MB 8-way 64B, 10-cycle minimum
coherence    10-cycle minimum hop (uncongested)
memory       200-cycle minimum after L2
`)
	return err
}
