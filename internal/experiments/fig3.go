package experiments

import (
	"fmt"
	"io"

	"reactivespec/internal/stats"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// Fig3Series is the behavior of one initially-invariant, later-changing
// branch: its bias averaged over blocks of 1,000 dynamic instances
// (Figure 3 plots five such branches from gap).
type Fig3Series struct {
	Bench  string
	Branch trace.BranchID
	Class  workload.BranchClass
	// BlockBias is the per-1,000-execution taken fraction.
	BlockBias []float64
}

// Fig3BlockLen is the paper's averaging block size.
const Fig3BlockLen = 1_000

// Fig3 reproduces Figure 3: five static branches from gap that are highly
// biased for at least their first 20 blocks and then change behavior. The
// block bias is computed directly from the branches' (deterministic)
// behavior models. At reduced scale fewer branches run long enough; Fig3
// returns those that do and fails only when none does.
func Fig3(cfg Config) ([]Fig3Series, error) {
	return fig3For(cfg, "gap", 5)
}

// fig3For extracts up to want changing-branch series from any benchmark.
func fig3For(cfg Config, bench string, want int) ([]Fig3Series, error) {
	cfg = cfg.withDefaults()
	spec, err := cfg.build(bench, workload.InputEval)
	if err != nil {
		return nil, err
	}
	var series []Fig3Series
	seenClass := make(map[workload.BranchClass]int)
	for id, b := range spec.Branches {
		if len(series) >= want {
			break
		}
		if !b.Class.Changed() || b.Class == workload.ClassLateOnset {
			continue
		}
		execs := uint64(b.Weight * float64(spec.Events))
		if execs < 25*Fig3BlockLen {
			continue
		}
		// Prefer a diverse class mix, like the figure's five examples.
		if seenClass[b.Class] >= 2 {
			continue
		}
		seenClass[b.Class]++
		blocks := execs / Fig3BlockLen
		if blocks > 120 {
			blocks = 120
		}
		s := Fig3Series{Bench: bench, Branch: trace.BranchID(id), Class: b.Class}
		// Plot bias toward the branch's initial majority direction, as
		// the paper's figure does, so changes are visible regardless of
		// whether the branch is taken- or not-taken-biased.
		initTaken := 0
		for i := uint64(0); i < Fig3BlockLen; i++ {
			if b.Model.Outcome(i) {
				initTaken++
			}
		}
		initDir := initTaken*2 >= Fig3BlockLen
		for blk := uint64(0); blk < blocks; blk++ {
			match := 0
			for i := uint64(0); i < Fig3BlockLen; i++ {
				if b.Model.Outcome(blk*Fig3BlockLen+i) == initDir {
					match++
				}
			}
			s.BlockBias = append(s.BlockBias, float64(match)/Fig3BlockLen)
		}
		series = append(series, s)
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("experiments: no changing branch with enough executions in %s", bench)
	}
	return series, nil
}

// WriteFig3 renders the series, one row per block in CSV mode and a compact
// sparkline-style row per branch in text mode.
func WriteFig3(w io.Writer, series []Fig3Series, csv bool) error {
	if csv {
		t := stats.NewTable("bench", "branch", "class", "block", "bias")
		for _, s := range series {
			for i, b := range s.BlockBias {
				t.AddRowf("%s", s.Bench, "%d", int(s.Branch), "%s", s.Class.String(), "%d", i, "%.3f", b)
			}
		}
		return t.WriteCSV(w)
	}
	t := stats.NewTable("bench", "branch", "class", "blocks", "bias toward initial direction (block 0 → n, ▁=0%..█=100%)")
	for _, s := range series {
		t.AddRowf("%s", s.Bench, "%d", int(s.Branch), "%s", s.Class.String(),
			"%d", len(s.BlockBias), "%s", sparkline(s.BlockBias))
	}
	return t.WriteText(w)
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func sparkline(vals []float64) string {
	// Compress to at most 60 columns.
	cols := len(vals)
	if cols > 60 {
		cols = 60
	}
	out := make([]rune, cols)
	for c := 0; c < cols; c++ {
		lo := c * len(vals) / cols
		hi := (c + 1) * len(vals) / cols
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += vals[i]
		}
		v := sum / float64(hi-lo)
		idx := int(v * float64(len(sparkRunes)))
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[c] = sparkRunes[idx]
	}
	return string(out)
}
