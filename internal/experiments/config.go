// Package experiments implements one driver per table and figure of the
// paper's evaluation, regenerating the same rows and series from the
// synthetic workloads (see DESIGN.md for the per-experiment index).
package experiments

import (
	"context"
	"fmt"

	"reactivespec/internal/core"
	"reactivespec/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// Context, when non-nil, bounds the run: long sweeps observe its
	// cancelation between (and, for streaming drivers, within) benchmarks
	// and return its error. nil means context.Background().
	Context context.Context
	// Scale multiplies the default workload size (1.0 = the calibrated
	// default of 1/250 of the paper's dynamic instruction counts). Use
	// small values (e.g. 0.02) for smoke tests.
	Scale float64
	// ParamScale divides the Table 2 count-based controller parameters;
	// the default 10 matches the default workload scale (EXPERIMENTS.md
	// explains the regime argument). 1 uses the paper's absolute values.
	ParamScale uint64
	// Seed perturbs workload generation. The default 0 is the calibrated
	// seed used by EXPERIMENTS.md.
	Seed uint64
	// Benchmarks limits the run to the named benchmarks (nil = all 12).
	Benchmarks []string
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.ParamScale == 0 {
		c.ParamScale = 10
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = workload.Suite()
	}
	return c
}

// ctx returns the run's context, defaulting to context.Background().
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

func (c Config) workloadOptions() workload.Options {
	return workload.Options{
		EventScale:  workload.DefaultEventScale * c.Scale,
		StaticScale: workload.DefaultStaticScale,
		Seed:        c.Seed,
	}
}

// ExperimentWaitPeriod is the revisit wait period used by the default
// experiment regime. The paper's 1,000,000-execution wait is ~1% of a hot
// branch's lifetime at full scale; our hot branches execute 10⁵–10⁶ times, so
// the regime-matched wait is 20,000 executions (see EXPERIMENTS.md).
const ExperimentWaitPeriod = 20_000

// Params returns the controller parameters the experiments run with: the
// paper's Table 2 values scaled to the experiment regime.
func (c Config) Params() core.Params {
	c = c.withDefaults()
	p := core.DefaultParams().Scaled(c.ParamScale)
	if c.ParamScale == 10 {
		p = p.WithWaitPeriod(ExperimentWaitPeriod)
	}
	return p
}

// pcts returns a run's correct and incorrect speculation as percentages of
// its events.
func pcts(st core.Stats) (correct, wrong float64) {
	return st.CorrectFrac() * 100, st.MisspecFrac() * 100
}

func (c Config) build(name string, input workload.InputID) (*workload.Spec, error) {
	return workload.Build(name, input, c.workloadOptions())
}

func (c Config) mustBuild(name string, input workload.InputID) *workload.Spec {
	s, err := c.build(name, input)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return s
}
