package experiments

import (
	"context"
	"strings"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/workload"
)

func TestProfileAveraging(t *testing.T) {
	rows, err := ProfileAveraging(Config{Scale: 0.1, Benchmarks: []string{"gzip"}}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	one, four := rows[0], rows[1]
	if one.Profiles != 1 || four.Profiles != 4 {
		t.Fatalf("profile counts %d/%d", one.Profiles, four.Profiles)
	}
	// The paper's claim: averaging reduces the misspeculation rate (the
	// input-dependent branches stop looking biased).
	if four.WrongPct > one.WrongPct {
		t.Fatalf("averaging increased misspec: %v -> %v", one.WrongPct, four.WrongPct)
	}
	var b strings.Builder
	if err := WriteAveraging(&b, rows, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gzip") {
		t.Fatal("rendering incomplete")
	}
}

func TestFlushPolicyBetweenLoops(t *testing.T) {
	rows, err := FlushPolicy(Config{Scale: 0.2, Benchmarks: []string{"gap"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Flushes == 0 {
		t.Fatal("no flushes performed")
	}
	// The paper's Section 5 prediction: flush-policy misspeculation lands
	// between closed-loop and open-loop.
	if r.Flush.WrongPct <= r.Closed.WrongPct {
		t.Fatalf("flush misspec %v not above closed-loop %v", r.Flush.WrongPct, r.Closed.WrongPct)
	}
	if r.Flush.WrongPct >= r.Open.WrongPct {
		t.Fatalf("flush misspec %v not below open-loop %v", r.Flush.WrongPct, r.Open.WrongPct)
	}
	var b strings.Builder
	if err := WriteFlush(&b, rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestFlushRelearnsAfterPhaseChange(t *testing.T) {
	// Train length 4, flush every 100 instructions.
	f := newFlushPolicy(4, 100)
	instr := uint64(0)
	feed := func(taken bool, n int) (misspec int) {
		for i := 0; i < n; i++ {
			instr += 5
			if f.OnBranch(0, taken, instr) == core.Misspec {
				misspec++
			}
		}
		return misspec
	}
	feed(true, 4) // trained taken
	if v := f.OnBranch(0, true, instr+1); v != core.Correct {
		t.Fatalf("post-training verdict = %v", v)
	}
	instr++
	// The branch reverses; the stale decision misspeculates until the
	// next flush re-trains it.
	m := feed(false, 100)
	if m == 0 {
		t.Fatal("no misspecs before flush")
	}
	if m >= 100-4 {
		t.Fatal("flush never relearned the branch")
	}
	if f.flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	// After relearning, the branch speculates correctly again.
	if v := f.OnBranch(0, false, instr+1); v != core.Correct {
		t.Fatalf("post-flush verdict = %v", v)
	}
}

func TestFlushZeroPeriodNeverFlushes(t *testing.T) {
	f := newFlushPolicy(4, 0)
	for i := 0; i < 1000; i++ {
		f.OnBranch(0, true, uint64(i*5))
	}
	if f.flushes != 0 {
		t.Fatalf("flushes = %d with zero period", f.flushes)
	}
}

// TestFlushRunAllMatchesRun: the flush policy scored in lockstep with the
// closed and open loops, as FlushPolicy runs it, ends where a lone run over
// an identical stream leaves it.
func TestFlushRunAllMatchesRun(t *testing.T) {
	cfg := Config{Scale: 0.05, Benchmarks: []string{"gzip"}}.withDefaults()
	spec, err := cfg.build("gzip", workload.InputEval)
	if err != nil {
		t.Fatal(err)
	}
	params := cfg.Params()
	period := spec.Instructions() / 6
	lockstep := newFlushPolicy(params.MonitorPeriod, period)
	sts, err := harness.RunAll(context.Background(), workload.NewGenerator(spec),
		core.New(params), lockstep, core.New(params.WithNoEviction()))
	if err != nil {
		t.Fatal(err)
	}
	alone := newFlushPolicy(params.MonitorPeriod, period)
	if want := harness.Run(workload.NewGenerator(spec), alone); sts[1] != want {
		t.Fatalf("lockstep flush stats %+v, lone run %+v", sts[1], want)
	}
	if lockstep.flushes != alone.flushes || alone.flushes == 0 {
		t.Fatalf("flushes: lockstep %d, lone %d; want equal and nonzero", lockstep.flushes, alone.flushes)
	}
	if sts[1].Correct == 0 {
		t.Fatal("flush policy never speculated; the comparison covers no decision")
	}
}

func TestSweepShapes(t *testing.T) {
	cfg := Config{Scale: 0.1, Benchmarks: []string{"gap"}}
	points, err := Sweep(cfg, sweepOf(t, "oscillation"))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// Raising the oscillation limit can only allow more selections.
	for i := 1; i < len(points); i++ {
		if points[i].Selections < points[i-1].Selections {
			t.Fatalf("selections not monotone in oscillation limit: %+v", points)
		}
	}

	points, err = Sweep(cfg, sweepOf(t, "threshold"))
	if err != nil {
		t.Fatal(err)
	}
	// A stricter selection threshold cannot increase coverage.
	first, last := points[0], points[len(points)-1]
	if last.CorrectPct > first.CorrectPct+0.5 {
		t.Fatalf("stricter threshold increased coverage: %v -> %v", first.CorrectPct, last.CorrectPct)
	}

	var b strings.Builder
	if err := WriteSweep(&b, points, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweep(&b, points, true); err != nil {
		t.Fatal(err)
	}
}

func TestSweepKindsAllSupported(t *testing.T) {
	cfg := Config{Scale: 0.05, ParamScale: 50, Benchmarks: []string{"eon"}}
	for _, sweep := range Sweeps {
		points, err := Sweep(cfg, sweep)
		if err != nil {
			t.Fatalf("%s: %v", sweep.Kind, err)
		}
		if len(points) == 0 {
			t.Fatalf("%s: no points", sweep.Kind)
		}
	}
}

// sweepOf returns the Sweeps entry for kind.
func sweepOf(t *testing.T, kind string) ParamSweep {
	t.Helper()
	for _, s := range Sweeps {
		if s.Kind == kind {
			return s
		}
	}
	t.Fatalf("no sweep %q", kind)
	return ParamSweep{}
}

func TestGeneralityQualitative(t *testing.T) {
	rows, err := Generality(Config{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]GeneralityRow{}
	for _, r := range rows {
		byKey[r.Domain+"/"+r.Policy] = r
	}
	for _, domain := range []string{"value-invariance", "memory-dependence"} {
		reactive := byKey[domain+"/reactive"]
		noEvict := byKey[domain+"/no-evict"]
		if reactive.CorrectPct <= 0 {
			t.Fatalf("%s: reactive found no opportunity", domain)
		}
		// The branch-study shape must hold in each domain.
		if noEvict.WrongPct < 10*reactive.WrongPct {
			t.Fatalf("%s: no-evict misspec %v not far above reactive %v",
				domain, noEvict.WrongPct, reactive.WrongPct)
		}
	}
	var b strings.Builder
	if err := WriteGenerality(&b, rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestTaskSweepFolding(t *testing.T) {
	rows, err := TaskSweep(Config{Scale: 0.2, Benchmarks: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TaskSweepBlocks) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Section 4.3: longer tasks fold more violations into each task
	// misspeculation.
	first, last := rows[0], rows[len(rows)-1]
	if last.FoldRatio() <= first.FoldRatio() {
		t.Fatalf("fold ratio not increasing with task size: %v -> %v",
			first.FoldRatio(), last.FoldRatio())
	}
	for _, r := range rows {
		if r.Violations < r.TaskMisspecs {
			t.Fatalf("violations %d < task misspecs %d", r.Violations, r.TaskMisspecs)
		}
	}
	var b strings.Builder
	if err := WriteTaskSweep(&b, rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestSlaveSweepDriver(t *testing.T) {
	rows, err := SlaveSweep(Config{Scale: 0.2, Benchmarks: []string{"bzip2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SlaveSweepCounts) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Fatalf("bad speedup %+v", r)
		}
	}
	var b strings.Builder
	if err := WriteSlaveSweep(&b, rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeDriver(t *testing.T) {
	rows, spec, err := Describe(Config{Scale: 0.2}, "gap", workload.InputEval)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "gap" || len(rows) == 0 {
		t.Fatalf("describe returned %d rows for %q", len(rows), spec.Name)
	}
	totalStatic := 0
	totalWeight := 0.0
	for _, r := range rows {
		totalStatic += r.Static
		totalWeight += r.WeightPct
		if r.MinExecs > r.MedianExecs || r.MedianExecs > r.MaxExecs {
			t.Fatalf("exec percentiles out of order: %+v", r)
		}
	}
	if totalStatic != len(spec.Branches) {
		t.Fatalf("class static counts sum to %d, want %d", totalStatic, len(spec.Branches))
	}
	if totalWeight < 99.0 || totalWeight > 101.0 {
		t.Fatalf("class weights sum to %v%%", totalWeight)
	}
	var b strings.Builder
	if err := WriteDescribe(&b, spec, rows, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "biased") {
		t.Fatal("describe rendering incomplete")
	}
}

func TestReplayDriver(t *testing.T) {
	rows, err := Replay(Config{Scale: 0.4, Benchmarks: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Frames == 0 {
		t.Fatal("no frames")
	}
	if r.OpenSpeedup >= r.ClosedSpeedup {
		t.Fatalf("open-loop frame speedup %v >= closed %v", r.OpenSpeedup, r.ClosedSpeedup)
	}
	if r.OpenAbortPct <= r.ClosedAbortPct {
		t.Fatalf("open-loop abort rate %v <= closed %v", r.OpenAbortPct, r.ClosedAbortPct)
	}
	var b strings.Builder
	if err := WriteReplay(&b, rows, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "geomean") {
		t.Fatal("rendering incomplete")
	}
}

func TestTLSDriver(t *testing.T) {
	rows, err := TLS(Config{Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	serial, closed, open := rows[0], rows[1], rows[2]
	if serial.Speedup != 1.0 {
		t.Fatalf("serial speedup = %v", serial.Speedup)
	}
	if closed.Speedup <= 1.0 {
		t.Fatalf("closed-loop TLS speedup = %v", closed.Speedup)
	}
	if open.Speedup >= closed.Speedup {
		t.Fatalf("open %v >= closed %v", open.Speedup, closed.Speedup)
	}
	if open.Violations <= closed.Violations {
		t.Fatalf("open violations %d <= closed %d", open.Violations, closed.Violations)
	}
	var b strings.Builder
	if err := WriteTLS(&b, rows, false); err != nil {
		t.Fatal(err)
	}
}
