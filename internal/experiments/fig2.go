package experiments

import (
	"io"

	"reactivespec/internal/baseline"
	"reactivespec/internal/bias"
	"reactivespec/internal/harness"
	"reactivespec/internal/stats"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// Fig2Series is the Figure 2 data for one benchmark: the self-training
// Pareto curve and the points for the two conventional control mechanisms.
type Fig2Series struct {
	Bench string
	// Pareto is the self-training trade-off curve (downsampled).
	Pareto []bias.ParetoPoint
	// Knee99 is the marked 99%-threshold self-training point.
	Knee99 bias.ParetoPoint
	// TrainInput is the triangle: selection from the differing profile
	// input (99% threshold), evaluated on the evaluation input.
	TrainInput Fig2Point
	// Initial are the crosses: initial-behavior selection at each
	// training length, evaluated on the rest of the run.
	Initial []Fig2Point
}

// Fig2Point is a correct/incorrect fraction pair with a label.
type Fig2Point struct {
	Label      string
	CorrectPct float64
	WrongPct   float64
}

// Fig2TrainLens returns the initial-behavior training lengths for the given
// parameter scale; at the paper's scale they are 1k, 10k, 100k, 300k and 1M
// executions (Section 2.2).
func Fig2TrainLens(paramScale uint64) []uint64 {
	base := []uint64{1_000, 10_000, 100_000, 300_000, 1_000_000}
	if paramScale <= 1 {
		return base
	}
	out := make([]uint64, len(base))
	for i, v := range base {
		out[i] = v / paramScale
		if out[i] == 0 {
			out[i] = 1
		}
	}
	return out
}

// Fig2 reproduces Figure 2: per benchmark, the Pareto-optimal self-training
// curve, the 99%-threshold knee, the cross-input profile triangle, and the
// initial-behavior crosses.
func Fig2(cfg Config) ([]Fig2Series, error) {
	cfg = cfg.withDefaults()
	trainLens := Fig2TrainLens(cfg.ParamScale)
	return runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) (Fig2Series, error) {
		eval, err := cfg.build(name, workload.InputEval)
		if err != nil {
			return Fig2Series{}, err
		}
		prof, err := cfg.build(name, workload.InputProfile)
		if err != nil {
			return Fig2Series{}, err
		}
		// Triangle: select from the profile input, evaluate on the
		// evaluation input. Crosses: initial behavior at increasing
		// training lengths. All of them score one pass of the evaluation
		// stream, which also builds the self-training profile.
		trainProfile := bias.FromStream(workload.NewGenerator(prof))
		ctls := []harness.Controller{baseline.NewStatic(trainProfile.Select(0.99, 1))}
		for _, n := range trainLens {
			ctls = append(ctls, baseline.NewInitialBehavior(n, 0.99))
		}
		evalProfile := bias.NewProfile()
		sts, err := harness.RunAll(cfg.ctx(), profiled{workload.NewGenerator(eval), evalProfile}, ctls...)
		if err != nil {
			return Fig2Series{}, err
		}
		s := Fig2Series{
			Bench:  name,
			Pareto: downsamplePareto(evalProfile.Pareto(), 64),
			Knee99: evalProfile.AtThreshold(0.99),
		}
		s.TrainInput = Fig2Point{Label: "train-input"}
		s.TrainInput.CorrectPct, s.TrainInput.WrongPct = pcts(sts[0])
		for i, n := range trainLens {
			p := Fig2Point{Label: "initial-" + stats.Count(n)}
			p.CorrectPct, p.WrongPct = pcts(sts[i+1])
			s.Initial = append(s.Initial, p)
		}
		return s, nil
	})
}

// profiled passes a stream through, observing every event into a profile.
type profiled struct {
	trace.Stream
	p *bias.Profile
}

func (s profiled) Next() (trace.Event, bool) {
	ev, ok := s.Stream.Next()
	if ok {
		s.p.Observe(ev)
	}
	return ev, ok
}

// downsamplePareto keeps roughly n evenly-spaced points, always including
// the last.
func downsamplePareto(points []bias.ParetoPoint, n int) []bias.ParetoPoint {
	if len(points) <= n {
		return points
	}
	out := make([]bias.ParetoPoint, 0, n+1)
	step := float64(len(points)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, points[int(float64(i)*step)])
	}
	out = append(out, points[len(points)-1])
	return out
}

// WriteFig2 renders the Figure 2 series. The full Pareto curves go to CSV
// mode; text mode prints the marked points plus a compact curve summary.
func WriteFig2(w io.Writer, series []Fig2Series, csv bool) error {
	t := stats.NewTable("bench", "mark", "correct%", "incorrect%", "static")
	for _, s := range series {
		if csv {
			for _, p := range s.Pareto {
				t.AddRowf("%s", s.Bench, "%s", "pareto", "%.3f", p.CorrectF*100, "%.5f", p.WrongF*100, "%d", p.NumStatic)
			}
		}
		t.AddRowf("%s", s.Bench, "%s", "knee-99", "%.2f", s.Knee99.CorrectF*100, "%.4f", s.Knee99.WrongF*100, "%d", s.Knee99.NumStatic)
		t.AddRowf("%s", s.Bench, "%s", s.TrainInput.Label, "%.2f", s.TrainInput.CorrectPct, "%.4f", s.TrainInput.WrongPct, "%s", "")
		for _, p := range s.Initial {
			t.AddRowf("%s", s.Bench, "%s", p.Label, "%.2f", p.CorrectPct, "%.4f", p.WrongPct, "%s", "")
		}
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
