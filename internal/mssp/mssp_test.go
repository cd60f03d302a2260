package mssp

import (
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/program"
)

// Test runs are very short (1.5 M instructions), so the controller and the
// program are scaled down with them: a 200-execution monitor window and
// fast-changing branches keep every machine mechanism exercised.
func testParams() core.Params {
	p := core.DefaultParams().Scaled(50)
	p.WaitPeriod = 5_000
	return p
}

const testRunInstrs = 1_500_000

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.RunInstrs = testRunInstrs
	return cfg
}

func synth(t *testing.T, changerFrac float64) *program.Program {
	t.Helper()
	o := program.DefaultSynthOptions()
	o.Regions = 8
	o.MeanTrip = 16
	o.RunInstrs = testRunInstrs
	o.BiasedFrac = 0.6
	o.ChangerFrac = changerFrac
	p, err := program.Synthesize("mssp-test", o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunProducesSaneResult(t *testing.T) {
	res := Run(synth(t, 0.1), core.New(testParams()), testConfig())
	if res.Tasks == 0 {
		t.Fatal("no tasks dispatched")
	}
	if res.MasterCycles <= 0 || res.BaselineCycles <= 0 {
		t.Fatalf("cycles %v / %v", res.MasterCycles, res.BaselineCycles)
	}
	if res.OriginalInstrs < testConfig().RunInstrs {
		t.Fatalf("OriginalInstrs = %d", res.OriginalInstrs)
	}
	if res.Speedup() <= 0 {
		t.Fatalf("Speedup = %v", res.Speedup())
	}
}

func TestDistillationShrinksMasterStream(t *testing.T) {
	res := Run(synth(t, 0.05), core.New(testParams()), testConfig())
	if res.DistilledInstrs >= res.OriginalInstrs {
		t.Fatalf("distilled %d >= original %d: speculation removed nothing",
			res.DistilledInstrs, res.OriginalInstrs)
	}
}

func TestMSSPBeatsBaselineWithGoodControl(t *testing.T) {
	// With few changers and reactive control the distilled program must
	// outrun the superscalar baseline.
	res := Run(synth(t, 0.02), core.New(testParams()), testConfig())
	if res.Speedup() <= 1.0 {
		t.Fatalf("closed-loop MSSP speedup = %v, want > 1", res.Speedup())
	}
}

func TestOpenLoopSuffersOnChangers(t *testing.T) {
	// At 0.5 changers the open loop squashes task after task; the run must
	// still reach RunInstrs, since a squashed task re-executes without its
	// speculative code and every block advances the run.
	for _, frac := range []float64{0.4, 0.5} {
		prog := synth(t, frac)
		closed := Run(prog, core.New(testParams()), testConfig())
		open := Run(prog, core.New(testParams().WithNoEviction()), testConfig())
		if open.TaskMisspecs <= closed.TaskMisspecs {
			t.Fatalf("changers %v: open-loop misspecs %d <= closed-loop %d",
				frac, open.TaskMisspecs, closed.TaskMisspecs)
		}
		if open.Speedup() >= closed.Speedup() {
			t.Fatalf("changers %v: open-loop speedup %v >= closed-loop %v",
				frac, open.Speedup(), closed.Speedup())
		}
		if open.OriginalInstrs < testRunInstrs {
			t.Fatalf("changers %v: open-loop run did not complete: %d of %d instrs",
				frac, open.OriginalInstrs, testRunInstrs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		return Run(synth(t, 0.1), core.New(testParams()), testConfig())
	}
	a, b := run(), run()
	if a.MasterCycles != b.MasterCycles || a.Tasks != b.Tasks ||
		a.TaskMisspecs != b.TaskMisspecs || a.BaselineCycles != b.BaselineCycles {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func TestBaselineAlone(t *testing.T) {
	cycles, st := Baseline(synth(t, 0.1), 200_000)
	if cycles <= 0 || st.Instrs < 200_000 {
		t.Fatalf("baseline cycles=%v instrs=%d", cycles, st.Instrs)
	}
	// Short cold-cache runs on streaming regions are memory-bound.
	if ipc := st.IPC(); ipc <= 0.1 || ipc > 4 {
		t.Fatalf("baseline IPC = %v outside a plausible range", ipc)
	}
}

func TestLatencyInsensitivity(t *testing.T) {
	prog := synth(t, 0.1)
	speedup := func(lat uint64) float64 {
		cfg := testConfig()
		cfg.OptLatencyCycles = lat
		p := testParams()
		p.OptLatency = lat
		return Run(prog, core.New(p), cfg).Speedup()
	}
	s0 := speedup(0)
	s1 := speedup(2_000)
	// The paper's claim: optimization latency has a small effect. Allow
	// 10% on these very short runs.
	if s1 < s0*0.90 {
		t.Fatalf("latency 2k dropped speedup from %v to %v", s0, s1)
	}
}

func TestReoptBookkeeping(t *testing.T) {
	res := Run(synth(t, 0.4), core.New(testParams()), testConfig())
	if res.Reopts == 0 {
		t.Fatal("no re-optimizations despite heavy changers")
	}
	if res.ChangesApplied < res.Reopts {
		t.Fatalf("ChangesApplied %d < Reopts %d", res.ChangesApplied, res.Reopts)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Slaves != 8 {
		t.Fatalf("Slaves = %d, want 8 (Table 5)", cfg.Slaves)
	}
	if cfg.TaskBlocks <= 0 || cfg.MaxUnverified <= 0 {
		t.Fatalf("bad defaults %+v", cfg)
	}
}

func TestResultSpeedupZeroSafe(t *testing.T) {
	if (Result{}).Speedup() != 0 {
		t.Fatal("zero result Speedup should be 0")
	}
}

func TestSlaveBandwidthBottleneck(t *testing.T) {
	// A single trailing core cannot verify the stream as fast as the
	// master produces it; the run-ahead bound throttles the master.
	prog := synth(t, 0.05)
	speedup := func(slaves int) float64 {
		cfg := testConfig()
		cfg.Slaves = slaves
		cfg.MaxUnverified = 2 * slaves
		return Run(prog, core.New(testParams()), cfg).Speedup()
	}
	one, two := speedup(1), speedup(2)
	if one >= two {
		t.Fatalf("1-slave speedup %v not below 2-slave %v", one, two)
	}
}

func TestValueSpeculationContributes(t *testing.T) {
	// The distiller folds invariant loads into constants; the value
	// controller must record correct value speculations, and phase
	// switches must be survivable (evict + re-learn, not a crash loop).
	res := Run(synth(t, 0.05), core.New(testParams()), testConfig())
	if res.ValueStats.Events == 0 {
		t.Fatal("no value loads observed")
	}
	if res.ValueStats.Correct == 0 {
		t.Fatal("no correct value speculations")
	}
	if res.ValueStats.Selections == 0 {
		t.Fatal("no value loads selected")
	}
	// Value misspeculation must stay far below the correct rate.
	if res.ValueStats.Misspec*10 > res.ValueStats.Correct {
		t.Fatalf("value misspec %d vs correct %d", res.ValueStats.Misspec, res.ValueStats.Correct)
	}
}
