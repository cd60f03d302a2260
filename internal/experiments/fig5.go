package experiments

import (
	"io"

	"reactivespec/internal/bias"
	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/stats"
	"reactivespec/internal/workload"
)

// Fig5Point is one mark of Figure 5: the correct/incorrect speculation
// fractions achieved by one controller configuration on one benchmark.
type Fig5Point struct {
	Bench      string
	Config     string
	CorrectPct float64
	WrongPct   float64
}

// Fig5ConfigNames lists the Figure 5 / Table 4 configurations in the paper's
// Table 4 order (ascending correct-speculation rate in the paper).
var Fig5ConfigNames = []string{
	"self-train-99",
	"no-revisit",
	"lower-evict-threshold",
	"evict-by-sampling",
	"baseline",
	"monitor-sampling",
	"frequent-revisit",
	"no-evict",
}

// fig5Controller returns the controller for a named configuration: the
// self-training selection from the run's own profile, or the reactive model
// with parameters derived from the experiment baseline (Section 3.3's
// sensitivity study).
func fig5Controller(name string, base core.Params, prof *bias.Profile) harness.Controller {
	switch name {
	case "self-train-99":
		return prof.Select(0.99, 1)
	case "no-evict":
		base = base.WithNoEviction()
	case "no-revisit":
		base = base.WithNoRevisit()
	case "lower-evict-threshold":
		base = base.WithEvictThreshold(base.EvictThreshold / 10)
	case "evict-by-sampling":
		base = base.WithSamplingEviction()
	case "frequent-revisit":
		base = base.WithWaitPeriod(base.WaitPeriod / 10)
	case "monitor-sampling":
		base = base.WithMonitorSampling(8)
	}
	return core.New(base)
}

// Fig5 reproduces Figure 5 and the data behind Table 4: the reactive model
// and its sensitivity variants on every benchmark, plus the self-training
// 99%-threshold reference point.
func Fig5(cfg Config) ([]Fig5Point, error) {
	cfg = cfg.withDefaults()
	base := cfg.Params()
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]Fig5Point, error) {
		spec, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return nil, err
		}
		// One pass profiles the run for the self-training line; one more
		// scores every configuration in lockstep.
		gen := workload.NewGenerator(spec)
		prof := bias.FromStream(gen)
		gen.Reset()
		ctls := make([]harness.Controller, len(Fig5ConfigNames))
		for i, conf := range Fig5ConfigNames {
			ctls[i] = fig5Controller(conf, base, prof)
		}
		sts, err := harness.RunAll(cfg.ctx(), gen, ctls...)
		if err != nil {
			return nil, err
		}
		points := make([]Fig5Point, len(sts))
		for i, st := range sts {
			points[i] = Fig5Point{Bench: name, Config: Fig5ConfigNames[i]}
			points[i].CorrectPct, points[i].WrongPct = pcts(st)
		}
		return points, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(perBench), nil
}

// Table4Row is one row of Table 4: a configuration's correct and incorrect
// speculation rates averaged across the benchmarks, next to the published
// values.
type Table4Row struct {
	Config     string
	CorrectPct float64
	WrongPct   float64
	Paper      [2]float64 // published correct%, incorrect%
}

// paperTable4 holds the published Table 4 (plus the self-training reference,
// which the paper shows as the Figure 5 line rather than a table row).
var paperTable4 = map[string][2]float64{
	"no-revisit":            {35.8, 0.007},
	"lower-evict-threshold": {42.9, 0.015},
	"evict-by-sampling":     {43.6, 0.021},
	"baseline":              {44.8, 0.023},
	"monitor-sampling":      {44.8, 0.025},
	"frequent-revisit":      {46.1, 0.033},
	"no-evict":              {53.9, 1.979},
}

// Table4 aggregates Figure 5 points into the paper's Table 4.
func Table4(points []Fig5Point) []Table4Row {
	rows := make([]Table4Row, 0, len(Fig5ConfigNames))
	for _, conf := range Fig5ConfigNames {
		var c, w stats.Running
		for _, p := range points {
			if p.Config == conf {
				c.Add(p.CorrectPct)
				w.Add(p.WrongPct)
			}
		}
		if c.N() == 0 {
			continue
		}
		rows = append(rows, Table4Row{
			Config:     conf,
			CorrectPct: c.Mean(),
			WrongPct:   w.Mean(),
			Paper:      paperTable4[conf],
		})
	}
	return rows
}

// WriteFig5 renders the per-benchmark Figure 5 points.
func WriteFig5(w io.Writer, points []Fig5Point, csv bool) error {
	t := stats.NewTable("bench", "config", "correct%", "incorrect%")
	for _, p := range points {
		t.AddRowf("%s", p.Bench, "%s", p.Config, "%.2f", p.CorrectPct, "%.4f", p.WrongPct)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}

// WriteTable4 renders Table 4 with the paper's published values alongside.
func WriteTable4(w io.Writer, rows []Table4Row, csv bool) error {
	t := stats.NewTable("config", "correct%", "incorrect%", "paper:correct%", "paper:incorrect%")
	for _, r := range rows {
		paperC, paperW := "-", "-"
		if r.Paper[0] != 0 || r.Paper[1] != 0 {
			paperC = stats.Pct(r.Paper[0]/100, 1)
			paperW = stats.Pct(r.Paper[1]/100, 3)
		}
		t.AddRowf("%s", r.Config, "%.1f", r.CorrectPct, "%.4f", r.WrongPct,
			"%s", paperC, "%s", paperW)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
