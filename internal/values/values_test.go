package values

import (
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

func testParams() core.Params {
	return core.Params{
		MonitorPeriod:    10,
		SelectThreshold:  0.9,
		EvictThreshold:   100,
		MisspecStep:      50,
		CorrectStep:      1,
		WaitPeriod:       20,
		MaxOptimizations: 3,
	}
}

type vfeeder struct {
	ctl   *core.ValueController
	instr uint64
}

func newFeeder(p core.Params) *vfeeder { return &vfeeder{ctl: core.NewValueController(p)} }

func (f *vfeeder) load(id int, v uint32) core.Verdict {
	f.instr += 5
	f.ctl.AddInstrs(5)
	return f.ctl.OnValue(id, v, f.instr)
}

// state returns load id's classification state.
func (f *vfeeder) state(id int) core.State { return f.ctl.UnitState(trace.BranchID(id)) }

func (f *vfeeder) repeat(id int, v uint32, n int) (correct, misspec int) {
	for i := 0; i < n; i++ {
		switch f.load(id, v) {
		case core.Correct:
			correct++
		case core.Misspec:
			misspec++
		}
	}
	return correct, misspec
}

func TestModels(t *testing.T) {
	if Constant(7).Value(0) != 7 || Constant(7).Value(1e6) != 7 {
		t.Fatal("Constant not constant")
	}
	p := PhaseConstant{V1: 1, V2: 2, SwitchAt: 10}
	if p.Value(9) != 1 || p.Value(10) != 2 {
		t.Fatal("PhaseConstant switch point wrong")
	}
	s := Stride{Base: 100, Step: 3}
	if s.Value(0) != 100 || s.Value(5) != 115 {
		t.Fatal("Stride arithmetic wrong")
	}
	m := MostlyConstant{Seed: 1, Dominant: 9, P: 0.9}
	dom := 0
	for n := uint64(0); n < 10_000; n++ {
		if m.Value(n) == 9 {
			dom++
		}
	}
	if dom < 8_800 || dom > 9_200 {
		t.Fatalf("MostlyConstant dominance = %d/10000", dom)
	}
}

func TestInvariantLoadSelected(t *testing.T) {
	f := newFeeder(testParams())
	f.repeat(0, 42, 10) // monitor window
	if got := f.state(0); got != core.Biased {
		t.Fatalf("state = %v, want biased", got)
	}
	// Deployment becomes live at the next instance (even with zero
	// latency the harness sees it one event later).
	correct, _ := f.repeat(0, 42, 100)
	if correct != 100 {
		t.Fatalf("correct = %d", correct)
	}
	if v, live := f.ctl.Speculating(0); !live || v != 42 {
		t.Fatalf("Speculating = (%d, %v)", v, live)
	}
}

func TestVaryingLoadRejected(t *testing.T) {
	f := newFeeder(testParams())
	for i := 0; i < 10; i++ {
		f.load(0, uint32(i)) // a stride: never modal
	}
	if got := f.state(0); got != core.Unbiased {
		t.Fatalf("state = %v, want unbiased", got)
	}
}

func TestConstantSwitchEvictsAndRelearns(t *testing.T) {
	f := newFeeder(testParams())
	f.repeat(0, 1, 11)
	// The constant changes: misspecs ramp the counter (2×50 ≥ 100).
	f.repeat(0, 2, 2)
	if got := f.state(0); got != core.Monitor {
		t.Fatalf("state after switch = %v, want monitor", got)
	}
	// Re-learn the new constant.
	f.repeat(0, 2, 10)
	if got := f.state(0); got != core.Biased {
		t.Fatalf("state after re-monitor = %v, want biased", got)
	}
	// Deployment becomes live at the next instance.
	correct, misspec := f.repeat(0, 2, 50)
	if correct != 50 || misspec != 0 {
		t.Fatalf("post-relearn verdicts %d/%d", correct, misspec)
	}
	if v, live := f.ctl.Speculating(0); !live || v != 2 {
		t.Fatalf("respeculated value = (%d, %v), want (2, true)", v, live)
	}
}

func TestOscillationLimitRetiresLoad(t *testing.T) {
	p := testParams()
	f := newFeeder(p)
	v := uint32(1)
	for opt := uint32(0); opt < p.MaxOptimizations; opt++ {
		f.repeat(0, v, 10) // select
		v++
		f.repeat(0, v, 2) // evict
	}
	f.repeat(0, v, 10) // one selection past the limit
	if got := f.state(0); got != core.Retired {
		t.Fatalf("state = %v, want retired", got)
	}
}

func TestRevisitDiscoversLateConstant(t *testing.T) {
	f := newFeeder(testParams())
	for i := 0; i < 10; i++ {
		f.load(0, uint32(i)) // varying → unbiased
	}
	// Becomes constant; after the 20-execution wait plus a monitor
	// window, it is selected.
	f.repeat(0, 7, 20+10)
	if got := f.state(0); got != core.Biased {
		t.Fatalf("state = %v, want biased", got)
	}
}

func TestNoRevisitStaysUnbiased(t *testing.T) {
	f := newFeeder(testParams().WithNoRevisit())
	for i := 0; i < 10; i++ {
		f.load(0, uint32(i))
	}
	f.repeat(0, 7, 500)
	if got := f.state(0); got != core.Unbiased {
		t.Fatalf("no-revisit state = %v", got)
	}
}

func TestNoEvictKeepsStaleConstant(t *testing.T) {
	f := newFeeder(testParams().WithNoEviction())
	f.repeat(0, 1, 11)
	_, misspec := f.repeat(0, 2, 300)
	if got := f.state(0); got != core.Biased {
		t.Fatalf("no-evict state = %v", got)
	}
	if misspec != 300 {
		t.Fatalf("misspec = %d", misspec)
	}
}

func TestStatsPartition(t *testing.T) {
	f := newFeeder(testParams())
	f.repeat(0, 5, 200)
	f.repeat(1, 6, 50)
	st := f.ctl.Stats()
	if st.Events != 250 || st.Correct+st.Misspec+st.NotSpec != st.Events {
		t.Fatalf("stats %+v", st)
	}
}

func TestSuiteDeterministicAndNormalized(t *testing.T) {
	a := BuildSuite(3, 0.1)
	b := BuildSuite(3, 0.1)
	if len(a.Loads) != len(b.Loads) || a.Events != b.Events {
		t.Fatal("suites differ between identical builds")
	}
	classes := map[string]int{}
	total := 0.0
	for _, l := range a.Loads {
		classes[l.Class]++
		total += l.Weight
	}
	for _, class := range []string{"invariant", "semi", "phase", "stride"} {
		if classes[class] == 0 {
			t.Fatalf("class %q missing", class)
		}
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("weights sum to %v", total)
	}
}

func TestStudyQualitativeShape(t *testing.T) {
	s := BuildSuite(0, 0.2)
	params := core.DefaultParams().Scaled(50)
	params.WaitPeriod = 5_000
	res := s.RunStudy(params)
	// The branch-study shape must carry over: reactive comparable to (or
	// better than) self-training at far lower misspeculation than the
	// open loop.
	if res.Reactive.CorrectFrac()*100 < res.SelfTrainCorrectPct*0.8 {
		t.Fatalf("reactive correct %.2f%% far below self-training %.2f%%",
			res.Reactive.CorrectFrac()*100, res.SelfTrainCorrectPct)
	}
	if res.NoEvict.MisspecFrac() < 10*res.Reactive.MisspecFrac() {
		t.Fatalf("no-evict misspec %.4f%% not far above reactive %.4f%%",
			res.NoEvict.MisspecFrac()*100, res.Reactive.MisspecFrac()*100)
	}
	if res.Touched == 0 || res.Biased == 0 || res.Evicted == 0 {
		t.Fatalf("static counts %d/%d/%d", res.Touched, res.Biased, res.Evicted)
	}
}
