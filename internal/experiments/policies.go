package experiments

import (
	"io"

	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/stats"
	"reactivespec/internal/workload"
)

// PolicyPoint is one mark of the policies head-to-head: one registered
// decision policy's speculation quality on one benchmark, under identical
// parameters and the identical event stream.
type PolicyPoint struct {
	Bench       string
	Policy      string
	CorrectPct  float64
	WrongPct    float64
	MisspecDist float64 // mean dynamic instructions between misspeculations
}

// Policies runs every registered decision policy (reactive, selftrain,
// probweight) over every benchmark through the same harness — the
// three-way comparison the paper makes piecewise: its reactive FSM against
// the self-training one-shot classifier (Section 2.1) and against a
// probability-weighted selector. Each policy sees the exact event sequence
// the others do, so differences are attributable to the policy alone.
func Policies(cfg Config) ([]PolicyPoint, error) {
	cfg = cfg.withDefaults()
	params := cfg.Params()
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]PolicyPoint, error) {
		spec, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return nil, err
		}
		var points []PolicyPoint
		for _, pol := range core.PolicyNames() {
			ctl, err := core.NewPolicySet(pol, params)
			if err != nil {
				return nil, err
			}
			st := harness.Run(workload.NewGenerator(spec), ctl)
			points = append(points, PolicyPoint{
				Bench:       name,
				Policy:      pol,
				CorrectPct:  st.CorrectFrac() * 100,
				WrongPct:    st.MisspecFrac() * 100,
				MisspecDist: st.MisspecDistance(),
			})
		}
		return points, nil
	})
	if err != nil {
		return nil, err
	}
	var points []PolicyPoint
	for _, ps := range perBench {
		points = append(points, ps...)
	}
	return points, nil
}

// PolicySummaryRow is one policy's quality averaged across the benchmarks.
type PolicySummaryRow struct {
	Policy     string
	CorrectPct float64
	WrongPct   float64
}

// PoliciesSummary aggregates the per-benchmark points into one row per
// policy, in registration order.
func PoliciesSummary(points []PolicyPoint) []PolicySummaryRow {
	var rows []PolicySummaryRow
	for _, pol := range core.PolicyNames() {
		var c, w stats.Running
		for _, p := range points {
			if p.Policy == pol {
				c.Add(p.CorrectPct)
				w.Add(p.WrongPct)
			}
		}
		if c.N() == 0 {
			continue
		}
		rows = append(rows, PolicySummaryRow{Policy: pol, CorrectPct: c.Mean(), WrongPct: w.Mean()})
	}
	return rows
}

// WritePolicies renders the per-benchmark policy comparison.
func WritePolicies(w io.Writer, points []PolicyPoint, csv bool) error {
	t := stats.NewTable("bench", "policy", "correct%", "incorrect%", "misspec-dist")
	for _, p := range points {
		t.AddRowf("%s", p.Bench, "%s", p.Policy, "%.2f", p.CorrectPct,
			"%.4f", p.WrongPct, "%.0f", p.MisspecDist)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}

// WritePoliciesSummary renders the cross-benchmark per-policy means.
func WritePoliciesSummary(w io.Writer, rows []PolicySummaryRow, csv bool) error {
	t := stats.NewTable("policy", "correct%", "incorrect%")
	for _, r := range rows {
		t.AddRowf("%s", r.Policy, "%.1f", r.CorrectPct, "%.4f", r.WrongPct)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
