package experiments

import (
	"io"

	"reactivespec/internal/mssp"
	"reactivespec/internal/stats"
)

// SlaveSweepRow reports MSSP performance at one trailing-core count. The
// Table 5 machine has eight; the sweep shows where verification bandwidth
// becomes the bottleneck (the master stalls when its run-ahead bound fills
// with unverified tasks).
type SlaveSweepRow struct {
	Bench   string
	Slaves  int
	Speedup float64
}

// SlaveSweepCounts are the default trailing-core counts.
var SlaveSweepCounts = []int{1, 2, 4, 8, 16}

// SlaveSweep runs the closed-loop MSSP machine with varying trailing-core
// counts.
func SlaveSweep(cfg Config) ([]SlaveSweepRow, error) {
	cfg = cfg.withDefaults()
	perBench, err := runParallel(cfg.ctx(), cfg.Benchmarks, func(name string) ([]SlaveSweepRow, error) {
		mcfg := mssp.DefaultConfig()
		mcfg.RunInstrs = uint64(float64(MSSPRunInstrs) * cfg.Scale)
		prog, err := msspProgram(name, cfg.Seed, mcfg.RunInstrs)
		if err != nil {
			return nil, err
		}
		base, _ := mssp.Baseline(prog, mcfg.RunInstrs)
		var rows []SlaveSweepRow
		for _, n := range SlaveSweepCounts {
			m := mcfg
			m.Slaves = n
			m.MaxUnverified = 2 * n
			m.PrecomputedBaseline = base
			res := mssp.Run(prog, fig7Controller(cfg, 1_000, false, 0), m)
			rows = append(rows, SlaveSweepRow{Bench: name, Slaves: n, Speedup: res.Speedup()})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(perBench), nil
}

// WriteSlaveSweep renders the trailing-core-count sweep.
func WriteSlaveSweep(w io.Writer, rows []SlaveSweepRow, csv bool) error {
	t := stats.NewTable("bench", "slaves", "speedup")
	for _, r := range rows {
		t.AddRowf("%s", r.Bench, "%d", r.Slaves, "%.3f", r.Speedup)
	}
	if csv {
		return t.WriteCSV(w)
	}
	return t.WriteText(w)
}
