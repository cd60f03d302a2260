package experiments

import (
	"io"

	"reactivespec/internal/mssp"
	"reactivespec/internal/stats"
)

// TaskSweepRow reports the MSSP machine at one task granularity: Section 4.3
// observes that because MSSP speculates at task granularity, several failed
// speculations within one task fold into a single task misspeculation, so
// longer tasks lower the effective misspeculation rate (while raising the
// per-misspeculation cost).
type TaskSweepRow struct {
	Bench      string
	TaskBlocks int
	Speedup    float64
	// Violations are individual failed speculations; TaskMisspecs are the
	// squashes they folded into.
	Violations, TaskMisspecs uint64
}

// FoldRatio returns violations per task misspeculation (≥ 1).
func (r TaskSweepRow) FoldRatio() float64 {
	if r.TaskMisspecs == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.TaskMisspecs)
}

// TaskSweepBlocks are the default task lengths, around the Table 5 machine's
// default of 24 dynamic blocks per task.
var TaskSweepBlocks = []int{6, 12, 24, 48, 96}

// TaskSweep runs the closed-loop MSSP machine at several task granularities.
func TaskSweep(cfg Config) ([]TaskSweepRow, error) {
	cfg = cfg.withDefaults()
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]TaskSweepRow, error) {
		mcfg := mssp.DefaultConfig()
		mcfg.RunInstrs = uint64(float64(MSSPRunInstrs) * cfg.Scale)
		prog, err := msspProgram(name, cfg.Seed, mcfg.RunInstrs)
		if err != nil {
			return nil, err
		}
		base, _ := mssp.Baseline(prog, mcfg.RunInstrs)
		var rows []TaskSweepRow
		for _, tb := range TaskSweepBlocks {
			m := mcfg
			m.TaskBlocks = tb
			m.PrecomputedBaseline = base
			res := mssp.Run(prog, fig7Controller(cfg, 1_000, false, 0), m)
			rows = append(rows, TaskSweepRow{
				Bench:        name,
				TaskBlocks:   tb,
				Speedup:      res.Speedup(),
				Violations:   res.SpecViolations,
				TaskMisspecs: res.TaskMisspecs,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(perBench), nil
}

// WriteTaskSweep renders the task-granularity sweep.
func WriteTaskSweep(w io.Writer, rows []TaskSweepRow, csv bool) error {
	t := stats.NewTable("bench", "task blocks", "speedup", "violations", "task misspecs", "fold ratio")
	for _, r := range rows {
		t.AddRowf("%s", r.Bench, "%d", r.TaskBlocks, "%.3f", r.Speedup,
			"%d", r.Violations, "%d", r.TaskMisspecs, "%.2f", r.FoldRatio())
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
