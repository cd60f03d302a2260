// Command perfbench is the repository's benchmark. It runs one named workload
// against the real binaries (reactived, reactivespec) built from the checkout,
// verifies every answer against a precomputed expectation, and prints the
// end-to-end metrics; with -trace 1 it instead replays the same inputs through
// each package's public entry points under span tracing and prints per-layer
// metrics.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -root DIR -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: stream-hot, post-fleet, restart, repro (see README.md).
//
// Output: one JSON report line with provenance and every metric under its
// descriptive name (sample counts beside percentiles), then, as the last
// line, the result object {"correct", "attempted", "failed", "metrics"}.
// The exit status is 0 only when every operation succeeded and every answer
// matched its expectation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxProcs is the CPU budget of every process the benchmark runs: the load
// generator (this process) and each daemon or reactivespec child.
func maxProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// options are the parsed command-line flags.
type options struct {
	root, bin, work string
	workload        string
	seed            uint64
	seconds         int
	trace           bool
	// corrupt flips one byte of one expected answer before the run, so the
	// correctness gate itself can be tested.
	corrupt bool
	// recordDigests regenerates repro_digests.json instead of running.
	recordDigests bool
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is one metric of the report line: its value, unit and, for
// percentiles and medians, how many samples it was taken over.
type detail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is the descriptive line printed before the result.
type report struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]detail `json:"metrics"`
	ErrorFrac  float64           `json:"error_frac"`
	Errors     []string          `json:"errors,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Windows    []window          `json:"windows,omitempty"`
}

// tally counts attempted and failed operations across goroutines and keeps
// the first few failure diagnostics.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
}

func (t *tally) ok() { t.attempted.Add(1) }

// fail counts one failed operation (the caller counts it as attempted too).
func (t *tally) fail(err error) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// measured is what one run of a workload produced: the result-line metrics
// and the report-line details.
type measured struct {
	result  map[string]metric
	details map[string]detail
	notes   []string
	windows []window
}

func newMeasured() *measured {
	return &measured{result: map[string]metric{}, details: map[string]detail{}}
}

// put records a result-line metric.
func (m *measured) put(name string, v float64, unit string) {
	m.result[name] = metric{Value: v, Unit: unit}
}

// note records a report-line metric.
func (m *measured) note(name string, v float64, unit string, samples int) {
	m.details[name] = detail{Value: v, Unit: unit, Samples: samples}
}

var workloads = map[string]func(ctx context.Context, o options, t *tally) (*measured, error){
	"stream-hot": runStreamHot,
	"post-fleet": runPostFleet,
	"restart":    runRestart,
	"repro":      runRepro,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.root, "root", ".", "repository checkout the binaries were built from")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding reactived and reactivespec")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for daemon data and span files")
	fs.StringVar(&o.workload, "workload", "", "workload name: stream-hot, post-fleet, restart or repro")
	fs.Uint64Var(&o.seed, "seed", 0, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run instead of the timed run")
	fs.BoolVar(&o.corrupt, "corrupt-expectation", false, "flip one expected answer byte (tests the correctness gate)")
	fs.BoolVar(&o.recordDigests, "record-digests", false, "regenerate repro_digests.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	runtime.GOMAXPROCS(maxProcs())
	if !o.trace {
		// The load generator's own garbage collection competes with the
		// daemon for the same two CPUs; collect less often. The traced run
		// keeps the default, as the daemon does.
		debug.SetGCPercent(400)
	}
	for _, d := range []*string{&o.root, &o.bin, &o.work} {
		abs, err := filepath.Abs(*d)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		*d = abs
	}
	ctx := context.Background()
	if o.recordDigests {
		if err := recordDigests(ctx, o, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds < 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: -workload must be one of %v and -seconds at least 1\n", names)
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var t tally
	var m *measured
	var err error
	if o.trace {
		m, err = runTraced(ctx, o, &t)
	} else {
		m, err = fn(ctx, o, &t)
	}
	if err != nil {
		// A set-up or harness failure: no result line, nonzero exit.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := report{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Provenance: collectProvenance(o),
		Metrics:    m.details,
		Errors:     t.errs,
		Notes:      m.notes,
		Windows:    m.windows,
	}
	res := result{
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   m.result,
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	rep.ErrorFrac = float64(res.Failed) / float64(res.Attempted)
	rep.Metrics["error_frac"] = detail{Value: rep.ErrorFrac, Unit: "ratio", Samples: int(res.Attempted)}
	if err := writeJSONLine(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// deadlineFrom returns the end of a measurement window starting now.
func deadlineFrom(seconds int) time.Time {
	return time.Now().Add(time.Duration(seconds) * time.Second)
}
