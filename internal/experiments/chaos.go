package experiments

import (
	"fmt"
	"io"
	"sort"

	"reactivespec/internal/baseline"
	"reactivespec/internal/bias"
	"reactivespec/internal/core"
	"reactivespec/internal/faults"
	"reactivespec/internal/harness"
	"reactivespec/internal/stats"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// The chaos experiment replays the paper's Figure 5 comparison — the
// reactive controller against the non-reactive control mechanisms — under
// injected faults instead of the clean calibrated streams, sweeping a single
// hostility knob. The paper's robustness claim is that reactive control
// degrades gracefully when branch behavior turns hostile while decide-once
// mechanisms fall off a cliff; this driver makes that claim measurable.
//
// Profiles are gathered on the clean streams (profiling happened before the
// world turned hostile); evaluation runs on the faulted stream. The reactive
// controller and the initial-behavior mechanism see only the faulted stream.

// ChaosMechanisms lists the compared control mechanisms in presentation
// order.
var ChaosMechanisms = []string{
	"reactive",
	"self-train-99",
	"prev-profile-99",
	"initial-behavior",
}

// DefaultChaosIntensities is the default fault-intensity sweep (0 is the
// clean reference point). It stops at 0.1: IntensityMix flips 15% ×
// intensity of the outcomes, so from there a monitor window averages more
// mispredictions than the 99.5% selection test allows and reactive control
// all but stops speculating; the grid below shows how it gets there.
var DefaultChaosIntensities = []float64{0, 0.01, 0.02, 0.05, 0.1}

// ChaosPoint is one mark: a mechanism's correct/incorrect speculation
// fractions on one benchmark at one fault intensity.
type ChaosPoint struct {
	Bench     string
	Intensity float64
	Mechanism string
	// CorrectPct and WrongPct are percentages of the faulted run's events.
	CorrectPct float64
	WrongPct   float64
	// Events is the faulted run's event count (drop/duplicate/truncate
	// change it).
	Events uint64
}

// chaosMix maps one intensity to a composite fault configuration: the
// canonical faults.IntensityMix keyed to this spec's population and seed.
func chaosMix(intensity float64, spec *workload.Spec) faults.Mix {
	return faults.IntensityMix(intensity, spec.Events,
		trace.BranchID(len(spec.Branches)), spec.Seed^0xc8a05_5eed)
}

// Chaos sweeps fault intensity across the configured benchmarks and
// mechanisms. A nil intensities slice runs DefaultChaosIntensities.
func Chaos(cfg Config, intensities []float64) ([]ChaosPoint, error) {
	cfg = cfg.withDefaults()
	if intensities == nil {
		intensities = DefaultChaosIntensities
	}
	for _, in := range intensities {
		if in < 0 || in > 1 {
			return nil, fmt.Errorf("chaos: intensity %v outside [0, 1]", in)
		}
	}
	params := cfg.Params()
	// Initial-behavior training length: the middle of the Figure 2 sweep
	// (100k executions at paper scale).
	trainLen := Fig2TrainLens(cfg.ParamScale)[2]
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]ChaosPoint, error) {
		eval, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return nil, err
		}
		prof, err := cfg.build(name, workload.InputProfile)
		if err != nil {
			return nil, err
		}
		// Clean-stream profiles: self-training from the evaluation input,
		// previous-run profile from the differing profiling input.
		selfSel := bias.FromStream(workload.NewGenerator(eval)).Select(0.99, 1)
		prevSel := bias.FromStream(workload.NewGenerator(prof)).Select(0.99, 1)

		var points []ChaosPoint
		for _, intensity := range intensities {
			mix := chaosMix(intensity, eval)
			faulted := mix.Apply(workload.NewGenerator(eval), eval.Events)
			// One controller per ChaosMechanisms entry, in its order.
			sts, err := harness.RunAll(cfg.ctx(), faulted,
				core.New(params),
				baseline.NewStatic(selfSel),
				baseline.NewStatic(prevSel),
				baseline.NewInitialBehavior(trainLen, 0.99))
			if err != nil {
				return nil, fmt.Errorf("chaos %s intensity %v: %w", name, intensity, err)
			}
			for i, st := range sts {
				p := ChaosPoint{Bench: name, Intensity: intensity, Mechanism: ChaosMechanisms[i], Events: st.Events}
				p.CorrectPct, p.WrongPct = pcts(st)
				points = append(points, p)
			}
		}
		return points, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(perBench), nil
}

// ChaosSummaryRow aggregates one (intensity, mechanism) cell across the
// benchmarks.
type ChaosSummaryRow struct {
	Intensity  float64
	Mechanism  string
	CorrectPct float64 // mean across benchmarks
	WrongPct   float64 // mean across benchmarks
	// WrongDelta is the misspeculation-rate degradation versus the same
	// mechanism's intensity-0 reference (percentage points).
	WrongDelta float64
}

// ChaosSummary aggregates per-benchmark points into the headline table:
// suite-mean correct/incorrect rates per mechanism and intensity, with each
// mechanism's degradation relative to its clean run.
func ChaosSummary(points []ChaosPoint) []ChaosSummaryRow {
	type cell struct{ c, w stats.Running }
	cells := map[float64]map[string]*cell{}
	var intensities []float64
	for _, p := range points {
		m, ok := cells[p.Intensity]
		if !ok {
			m = map[string]*cell{}
			cells[p.Intensity] = m
			intensities = append(intensities, p.Intensity)
		}
		cl, ok := m[p.Mechanism]
		if !ok {
			cl = &cell{}
			m[p.Mechanism] = cl
		}
		cl.c.Add(p.CorrectPct)
		cl.w.Add(p.WrongPct)
	}
	sort.Float64s(intensities)
	clean := map[string]float64{}
	if m, ok := cells[0]; ok {
		for mech, cl := range m {
			clean[mech] = cl.w.Mean()
		}
	}
	var rows []ChaosSummaryRow
	for _, in := range intensities {
		for _, mech := range ChaosMechanisms {
			cl, ok := cells[in][mech]
			if !ok {
				continue
			}
			rows = append(rows, ChaosSummaryRow{
				Intensity:  in,
				Mechanism:  mech,
				CorrectPct: cl.c.Mean(),
				WrongPct:   cl.w.Mean(),
				WrongDelta: cl.w.Mean() - clean[mech],
			})
		}
	}
	return rows
}

// WriteChaos renders the per-benchmark chaos points.
func WriteChaos(w io.Writer, points []ChaosPoint, csv bool) error {
	t := stats.NewTable("bench", "intensity", "mechanism", "correct%", "incorrect%", "events")
	for _, p := range points {
		t.AddRowf("%s", p.Bench, "%.2f", p.Intensity, "%s", p.Mechanism,
			"%.2f", p.CorrectPct, "%.4f", p.WrongPct, "%d", p.Events)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}

// WriteChaosSummary renders the suite-aggregate degradation table.
func WriteChaosSummary(w io.Writer, rows []ChaosSummaryRow, csv bool) error {
	t := stats.NewTable("intensity", "mechanism", "correct%", "incorrect%", "incorrect-delta")
	for _, r := range rows {
		t.AddRowf("%.2f", r.Intensity, "%s", r.Mechanism,
			"%.2f", r.CorrectPct, "%.4f", r.WrongPct, "%+.4f", r.WrongDelta)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
