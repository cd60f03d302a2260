package experiments

import (
	"io"

	"reactivespec/internal/baseline"
	"reactivespec/internal/bias"
	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/stats"
	"reactivespec/internal/workload"
)

// This file holds the ablation studies that go beyond the paper's printed
// figures: data the paper describes but does not show (profile averaging,
// Section 2.2), predictions it makes about related work (the Dynamo-style
// flush policy, Section 5), and parameter sweeps around the design choices
// the sensitivity analysis (Section 3.3) samples at single points.

// AveragingRow is one row of the profile-averaging study: selection from the
// merged profile of K differing training inputs, evaluated on the evaluation
// input.
type AveragingRow struct {
	Bench      string
	Profiles   int
	CorrectPct float64
	WrongPct   float64
	Selected   int
}

// ProfileAveraging reproduces the paper's unshown Section 2.2 claim:
// averaging profiles reduces the misspeculation rate but also reduces
// opportunity, because input-dependent branches stop looking biased.
func ProfileAveraging(cfg Config, counts []int) ([]AveragingRow, error) {
	cfg = cfg.withDefaults()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]AveragingRow, error) {
		eval, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return nil, err
		}
		maxK := 0
		for _, k := range counts {
			if k > maxK {
				maxK = k
			}
		}
		profiles := make([]*bias.Profile, maxK)
		for i := range profiles {
			spec, err := cfg.build(name, workload.InputVariant(i+1))
			if err != nil {
				return nil, err
			}
			profiles[i] = bias.FromStream(workload.NewGenerator(spec))
		}
		rows := make([]AveragingRow, len(counts))
		ctls := make([]harness.Controller, len(counts))
		for i, k := range counts {
			sel := bias.Merge(profiles[:k]...).Select(0.99, 1)
			rows[i] = AveragingRow{Bench: name, Profiles: k, Selected: sel.Len()}
			ctls[i] = baseline.NewStatic(sel)
		}
		sts, err := harness.RunAll(cfg.ctx(), workload.NewGenerator(eval), ctls...)
		if err != nil {
			return nil, err
		}
		for i, st := range sts {
			rows[i].CorrectPct, rows[i].WrongPct = pcts(st)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(perBench), nil
}

// WriteAveraging renders the profile-averaging study.
func WriteAveraging(w io.Writer, rows []AveragingRow, csv bool) error {
	t := stats.NewTable("bench", "profiles", "correct%", "incorrect%", "selected")
	for _, r := range rows {
		t.AddRowf("%s", r.Bench, "%d", r.Profiles, "%.2f", r.CorrectPct, "%.4f", r.WrongPct, "%d", r.Selected)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}

// FlushRow compares the reactive closed loop, the Dynamo-style periodic-flush
// policy, and the open loop on one benchmark.
type FlushRow struct {
	Bench string
	// CorrectPct / WrongPct per policy.
	Closed, Flush, Open struct {
		CorrectPct, WrongPct float64
	}
	Flushes uint64
}

// FlushPolicy tests the paper's Section 5 prediction that a preemptive
// fragment-cache flush lands between the closed- and open-loop policies.
func FlushPolicy(cfg Config) ([]FlushRow, error) {
	cfg = cfg.withDefaults()
	params := cfg.Params()
	return runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) (FlushRow, error) {
		spec, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return FlushRow{}, err
		}
		// Flush every ~1/6th of the run: a few phase-level flushes.
		fl := baseline.NewFlush(params.MonitorPeriod, 0.99, spec.Instructions()/6)
		sts, err := harness.RunAll(cfg.ctx(), workload.NewGenerator(spec),
			core.New(params), fl, core.New(params.WithNoEviction()))
		if err != nil {
			return FlushRow{}, err
		}
		row := FlushRow{Bench: name, Flushes: fl.Flushes}
		row.Closed.CorrectPct, row.Closed.WrongPct = pcts(sts[0])
		row.Flush.CorrectPct, row.Flush.WrongPct = pcts(sts[1])
		row.Open.CorrectPct, row.Open.WrongPct = pcts(sts[2])
		return row, nil
	})
}

// WriteFlush renders the flush-policy comparison.
func WriteFlush(w io.Writer, rows []FlushRow, csv bool) error {
	t := stats.NewTable("bench", "closed corr%", "closed incor%",
		"flush corr%", "flush incor%", "open corr%", "open incor%", "flushes")
	for _, r := range rows {
		t.AddRowf("%s", r.Bench,
			"%.1f", r.Closed.CorrectPct, "%.4f", r.Closed.WrongPct,
			"%.1f", r.Flush.CorrectPct, "%.4f", r.Flush.WrongPct,
			"%.1f", r.Open.CorrectPct, "%.4f", r.Open.WrongPct,
			"%d", r.Flushes)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}

// SweepPoint is one parameter setting's suite-average outcome.
type SweepPoint struct {
	Label      string
	Value      uint64
	CorrectPct float64
	WrongPct   float64
	Evictions  uint64
	Selections uint64
	Retired    int
}

// ParamSweep varies one Table 2 parameter around the experiment baseline;
// Section 3.3 samples most of these at a single alternative point, the
// sweeps fill in the curve.
type ParamSweep struct {
	// Kind names the sweep and labels its points.
	Kind string
	// Values returns the sweep points, derived from the experiment-regime
	// baseline.
	Values func(base core.Params) []uint64
	// Apply sets the swept parameter of p to v.
	Apply func(p *core.Params, v uint64)
}

// Sweeps lists the parameter sweeps in presentation order.
var Sweeps = []ParamSweep{
	{"monitor", func(b core.Params) []uint64 { // monitor period
		m := b.MonitorPeriod
		return []uint64{m / 4, m / 2, m, m * 2, m * 4}
	}, func(p *core.Params, v uint64) { p.MonitorPeriod = v }},
	{"evict", func(b core.Params) []uint64 { // eviction threshold
		e := uint64(b.EvictThreshold)
		return []uint64{e / 10, e / 3, e, e * 3, e * 10}
	}, func(p *core.Params, v uint64) { p.EvictThreshold = uint32(v) }},
	{"wait", func(b core.Params) []uint64 { // revisit wait period
		w := b.WaitPeriod
		return []uint64{w / 10, w / 3, w, w * 3, w * 10}
	}, func(p *core.Params, v uint64) { p.WaitPeriod = v }},
	{"oscillation", func(core.Params) []uint64 { return []uint64{1, 2, 5, 20, 1 << 30} }, // oscillation limit
		func(p *core.Params, v uint64) { p.MaxOptimizations = uint32(v) }},
	{"step", func(core.Params) []uint64 { return []uint64{10, 25, 50, 100, 200} }, // misspeculation counter step
		func(p *core.Params, v uint64) { p.MisspecStep = uint32(v) }},
	{"threshold", func(core.Params) []uint64 { return []uint64{985, 990, 995, 998, 999} }, // selection threshold ×1000
		func(p *core.Params, v uint64) { p.SelectThreshold = float64(v) / 1000 }},
}

// Sweep runs one parameter sweep over the configured benchmarks and returns
// suite-aggregate points. Each benchmark's stream is generated once and
// scores every value in lockstep; the points sum the benchmarks in order.
func Sweep(cfg Config, sweep ParamSweep) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	base := cfg.Params()
	values := sweep.Values(base)
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]sweepCell, error) {
		spec, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return nil, err
		}
		ctls := make([]harness.Controller, len(values))
		for i, v := range values {
			p := base
			sweep.Apply(&p, v)
			ctls[i] = core.New(p)
		}
		if _, err := harness.RunAll(cfg.ctx(), workload.NewGenerator(spec), ctls...); err != nil {
			return nil, err
		}
		cells := make([]sweepCell, len(values))
		for i, ctl := range ctls {
			c := ctl.(*core.Controller)
			_, _, _, retired := c.StaticCounts()
			cells[i] = sweepCell{c.Stats(), retired}
		}
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(values))
	for i, v := range values {
		var sum core.Stats
		p := SweepPoint{Label: sweep.Kind, Value: v}
		for _, cells := range perBench {
			c := cells[i]
			sum.Events += c.Events
			sum.Correct += c.Correct
			sum.Misspec += c.Misspec
			p.Evictions += c.Evictions
			p.Selections += c.Selections
			p.Retired += c.retired
		}
		p.CorrectPct = 100 * float64(sum.Correct) / float64(sum.Events)
		p.WrongPct = 100 * float64(sum.Misspec) / float64(sum.Events)
		points[i] = p
	}
	return points, nil
}

// sweepCell is one sweep value's outcome on one benchmark: the controller's
// own Stats and its count of units retired by the oscillation limit.
type sweepCell struct {
	core.Stats
	retired int
}

// WriteSweep renders sweep points.
func WriteSweep(w io.Writer, points []SweepPoint, csv bool) error {
	t := stats.NewTable("sweep", "value", "correct%", "incorrect%", "selections", "evictions", "retired")
	for _, p := range points {
		t.AddRowf("%s", p.Label, "%d", p.Value, "%.2f", p.CorrectPct, "%.4f", p.WrongPct,
			"%d", p.Selections, "%d", p.Evictions, "%d", p.Retired)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
