package experiments

import (
	"io"

	"reactivespec/internal/bias"
	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/memdep"
	"reactivespec/internal/stats"
	"reactivespec/internal/values"
	"reactivespec/internal/workload"
)

// GeneralityRow is one policy's outcome on one non-branch behavior domain,
// checking the paper's Section 2 claim that the branch results are
// "qualitatively consistent with other program behaviors".
type GeneralityRow struct {
	Domain     string // "value-invariance" or "memory-dependence"
	Policy     string // "self-train-99", "reactive", "no-evict"
	CorrectPct float64
	WrongPct   float64
}

// Generality runs the reactive model, its open-loop ablation, and the
// self-training oracle on the load-value-invariance and memory-dependence
// workloads.
func Generality(cfg Config) ([]GeneralityRow, error) {
	cfg = cfg.withDefaults()
	params := cfg.Params()
	var rows []GeneralityRow

	// --- Load-value invariance.
	vs := values.BuildSuite(cfg.Seed, cfg.Scale)
	study := vs.RunStudy(params)
	rows = append(rows,
		GeneralityRow{Domain: "value-invariance", Policy: "self-train-99",
			CorrectPct: study.SelfTrainCorrectPct, WrongPct: study.SelfTrainWrongPct},
		GeneralityRow{Domain: "value-invariance", Policy: "reactive",
			CorrectPct: study.Reactive.CorrectFrac() * 100, WrongPct: study.Reactive.MisspecFrac() * 100},
		GeneralityRow{Domain: "value-invariance", Policy: "no-evict",
			CorrectPct: study.NoEvict.CorrectFrac() * 100, WrongPct: study.NoEvict.MisspecFrac() * 100},
	)

	// --- Memory dependences: a binary behavior, so the branch tool chain
	// applies directly.
	spec := memdep.BuildSuite(cfg.Seed, cfg.Scale)
	gen := workload.NewGenerator(spec)
	prof := bias.FromStream(gen)
	gen.Reset()
	sts, err := harness.RunAll(cfg.ctx(), gen, prof.Select(0.99, 1),
		core.New(params), core.New(params.WithNoEviction()))
	if err != nil {
		return nil, err
	}
	for i, pol := range []string{"self-train-99", "reactive", "no-evict"} {
		r := GeneralityRow{Domain: "memory-dependence", Policy: pol}
		r.CorrectPct, r.WrongPct = pcts(sts[i])
		rows = append(rows, r)
	}
	return rows, nil
}

// WriteGenerality renders the generality study.
func WriteGenerality(w io.Writer, rows []GeneralityRow, csv bool) error {
	t := stats.NewTable("domain", "policy", "correct%", "incorrect%")
	for _, r := range rows {
		t.AddRowf("%s", r.Domain, "%s", r.Policy, "%.2f", r.CorrectPct, "%.4f", r.WrongPct)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
