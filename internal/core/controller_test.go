package core

import (
	"testing"
	"testing/quick"

	"reactivespec/internal/trace"
)

// testParams returns small-scale parameters that exercise every transition
// quickly: 10-execution monitor, 90% selection, eviction after two quick
// misspeculations, 20-execution wait, two optimizations max.
func testParams() Params {
	return Params{
		MonitorPeriod:    10,
		SelectThreshold:  0.9,
		EvictThreshold:   100,
		MisspecStep:      50,
		CorrectStep:      1,
		WaitPeriod:       20,
		MaxOptimizations: 2,
		OptLatency:       0,
		SampleLen:        5,
		SamplePeriod:     20,
		EvictBias:        0.95,
	}
}

// feeder drives a controller with a synthetic single-branch stream.
type feeder struct {
	ctl   *Controller
	instr uint64
}

func (f *feeder) branch(id trace.BranchID, taken bool) Verdict {
	f.instr += 5
	f.ctl.AddInstrs(5)
	return f.ctl.OnBranch(id, taken, f.instr)
}

func (f *feeder) repeat(id trace.BranchID, taken bool, n int) (correct, misspec, notspec int) {
	for i := 0; i < n; i++ {
		switch f.branch(id, taken) {
		case Correct:
			correct++
		case Misspec:
			misspec++
		default:
			notspec++
		}
	}
	return correct, misspec, notspec
}

func TestMonitorToBiased(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	f.repeat(0, true, 9)
	if got := f.ctl.UnitState(0); got != Monitor {
		t.Fatalf("state after 9 execs = %v, want monitor", got)
	}
	f.branch(0, true) // completes the monitor window
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("state after monitor window = %v, want biased", got)
	}
	dir, live := f.ctl.Speculating(0)
	if live && !dir {
		t.Fatal("speculation live in wrong direction")
	}
	// With zero latency, speculation is live from the next event.
	if v := f.branch(0, true); v != Correct {
		t.Fatalf("verdict after selection = %v, want correct", v)
	}
}

func TestMonitorToUnbiased(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	for i := 0; i < 10; i++ {
		f.branch(0, i%2 == 0)
	}
	if got := f.ctl.UnitState(0); got != Unbiased {
		t.Fatalf("state for 50/50 branch = %v, want unbiased", got)
	}
}

func TestNotTakenDirection(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	f.repeat(0, false, 10)
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("state = %v, want biased", got)
	}
	if v := f.branch(0, false); v != Correct {
		t.Fatalf("not-taken-biased verdict = %v, want correct", v)
	}
	if v := f.branch(0, true); v != Misspec {
		t.Fatalf("contrary outcome verdict = %v, want misspec", v)
	}
}

func TestEvictionOnReversal(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	f.repeat(0, true, 11) // monitor + first speculated event
	// Reverse: two misspecs ramp the counter (2×50 = 100 = threshold).
	f.repeat(0, false, 2)
	if got := f.ctl.UnitState(0); got != Monitor {
		t.Fatalf("state after reversal = %v, want monitor (evicted)", got)
	}
	if f.ctl.Evictions(0) != 1 {
		t.Fatalf("Evictions = %d, want 1", f.ctl.Evictions(0))
	}
	if f.ctl.Stats().Evictions != 1 {
		t.Fatalf("stats.Evictions = %d, want 1", f.ctl.Stats().Evictions)
	}
}

func TestEvictionHysteresisToleratesBursts(t *testing.T) {
	p := testParams()
	p.EvictThreshold = 1_000
	f := &feeder{ctl: New(p)}
	f.repeat(0, true, 10)
	// Alternate short bursts of misspeculation with long correct runs:
	// +50 per misspec, −1 per correct; 5 misspecs then 300 corrects stays
	// well under 1,000.
	for round := 0; round < 20; round++ {
		f.repeat(0, false, 5)
		f.repeat(0, true, 300)
	}
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("bursty-but-biased branch evicted (state %v)", got)
	}
}

func TestReselectionAfterReversal(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	f.repeat(0, true, 11)
	f.repeat(0, false, 2) // evicted
	// The branch is now consistently not-taken: one monitor window
	// re-selects it in the other direction.
	f.repeat(0, false, 10)
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("state after re-monitor = %v, want biased", got)
	}
	if v := f.branch(0, false); v != Correct {
		t.Fatalf("re-selected direction verdict = %v, want correct", v)
	}
	if f.ctl.Optimizations(0) != 2 {
		t.Fatalf("Optimizations = %d, want 2", f.ctl.Optimizations(0))
	}
}

func TestRevisitFromUnbiased(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	for i := 0; i < 10; i++ {
		f.branch(0, i%2 == 0) // unbiased
	}
	for i := 0; i < 19; i++ {
		f.branch(0, i%2 == 0)
	}
	if got := f.ctl.UnitState(0); got != Unbiased {
		t.Fatalf("state during wait = %v, want unbiased", got)
	}
	f.branch(0, true) // completes the wait period
	if got := f.ctl.UnitState(0); got != Monitor {
		t.Fatalf("state after wait = %v, want monitor (revisit)", got)
	}
	// Now biased: the revisit lets it be discovered.
	f.repeat(0, true, 10)
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("late-onset branch state = %v, want biased", got)
	}
}

func TestNoRevisitVariant(t *testing.T) {
	f := &feeder{ctl: New(testParams().WithNoRevisit())}
	for i := 0; i < 10; i++ {
		f.branch(0, i%2 == 0)
	}
	f.repeat(0, true, 500)
	if got := f.ctl.UnitState(0); got != Unbiased {
		t.Fatalf("no-revisit state = %v, want unbiased forever", got)
	}
}

func TestNoEvictionVariant(t *testing.T) {
	f := &feeder{ctl: New(testParams().WithNoEviction())}
	f.repeat(0, true, 10)
	_, misspec, _ := f.repeat(0, false, 500)
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("no-eviction state = %v, want biased forever", got)
	}
	if misspec != 500 {
		t.Fatalf("misspec count = %d, want 500", misspec)
	}
}

func TestOscillationLimitRetires(t *testing.T) {
	f := &feeder{ctl: New(testParams())} // MaxOptimizations = 2
	dir := true
	for opt := 0; opt < 2; opt++ {
		f.repeat(0, dir, 10) // monitor → biased
		f.repeat(0, !dir, 3) // evict
		dir = !dir
	}
	// Third selection attempt must retire instead.
	f.repeat(0, dir, 10)
	if got := f.ctl.UnitState(0); got != Retired {
		t.Fatalf("state after third selection attempt = %v, want retired", got)
	}
	_, _, everEvicted, retired := f.ctl.StaticCounts()
	if everEvicted != 1 || retired != 1 {
		t.Fatalf("StaticCounts evicted=%d retired=%d", everEvicted, retired)
	}
	// Retired branches never speculate again.
	if _, live := f.ctl.Speculating(0); live {
		t.Fatal("retired branch still has live speculation")
	}
	_, misspec, _ := f.repeat(0, dir, 100)
	if misspec != 0 {
		t.Fatalf("retired branch produced %d misspecs", misspec)
	}
}

func TestOptimizationLatencyDelaysDeployment(t *testing.T) {
	p := testParams()
	p.OptLatency = 100 // instructions; feeder advances 5 per event
	f := &feeder{ctl: New(p)}
	f.repeat(0, true, 10) // selected at instr 50, live at 150
	correct, _, notspec := f.repeat(0, true, 19)
	// Events at instr 55..145 (19 events): all before deployment.
	if correct != 0 || notspec != 19 {
		t.Fatalf("before deployment: correct=%d notspec=%d", correct, notspec)
	}
	if v := f.branch(0, true); v != Correct {
		t.Fatalf("verdict at deployment instant = %v, want correct", v)
	}
}

func TestEvictionLameDuckKeepsCounting(t *testing.T) {
	p := testParams()
	p.OptLatency = 100
	f := &feeder{ctl: New(p)}
	f.repeat(0, true, 10)
	f.repeat(0, true, 25) // deployed and correct
	// Reverse. Eviction needs two misspecs; the stale code stays
	// deployed for 100 more instructions (20 events).
	f.repeat(0, false, 2)
	if got := f.ctl.UnitState(0); got != Monitor {
		t.Fatalf("state = %v, want monitor", got)
	}
	_, misspec, _ := f.repeat(0, false, 19)
	if misspec != 19 {
		t.Fatalf("lame-duck misspecs = %d, want 19", misspec)
	}
	_, misspec, _ = f.repeat(0, false, 5)
	if misspec != 0 {
		t.Fatalf("post-undeploy misspecs = %d, want 0", misspec)
	}
}

func TestMonitorSampling(t *testing.T) {
	f := &feeder{ctl: New(testParams().WithMonitorSampling(2))}
	// Period counts executions (10); samples are 1-in-2. An all-taken
	// stream still classifies as biased.
	f.repeat(0, true, 10)
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("sampled monitor state = %v, want biased", got)
	}
}

func TestEvictBySampling(t *testing.T) {
	f := &feeder{ctl: New(testParams().WithSamplingEviction())}
	f.repeat(0, true, 10) // biased
	// Fully reversed: the first 5-execution sample reads 0% correct,
	// below the 95% eviction floor.
	f.repeat(0, false, 5)
	if got := f.ctl.UnitState(0); got != Monitor {
		t.Fatalf("sampling eviction state = %v, want monitor", got)
	}
}

func TestEvictBySamplingIgnoresOffCycleNoise(t *testing.T) {
	f := &feeder{ctl: New(testParams().WithSamplingEviction())}
	f.repeat(0, true, 10)
	f.repeat(0, true, 5) // clean sample (cycle positions 0–4)
	// Noise entirely within the off-duty part of the cycle (positions
	// 5–19) is not observed.
	f.repeat(0, false, 15)
	if got := f.ctl.UnitState(0); got != Biased {
		t.Fatalf("off-cycle noise evicted the branch (state %v)", got)
	}
}

func TestStatsPartitionEvents(t *testing.T) {
	f := &feeder{ctl: New(testParams())}
	f.repeat(0, true, 500)
	for i := 0; i < 500; i++ {
		f.branch(1, i%3 == 0)
	}
	st := f.ctl.Stats()
	if st.Events != 1_000 {
		t.Fatalf("Events = %d", st.Events)
	}
	if st.Correct+st.Misspec+st.NotSpec != st.Events {
		t.Fatalf("verdict partition %d+%d+%d != %d", st.Correct, st.Misspec, st.NotSpec, st.Events)
	}
	if st.Instrs != 5_000 {
		t.Fatalf("Instrs = %d", st.Instrs)
	}
}

func TestTransitionHook(t *testing.T) {
	ctl := New(testParams())
	var transitions []Transition
	ctl.OnTransition = func(tr Transition) { transitions = append(transitions, tr) }
	f := &feeder{ctl: ctl}
	f.repeat(0, true, 10)
	f.repeat(0, false, 3)
	if len(transitions) < 2 {
		t.Fatalf("expected at least 2 transitions, got %d", len(transitions))
	}
	if transitions[0].From != Monitor || transitions[0].To != Biased {
		t.Fatalf("first transition = %+v", transitions[0])
	}
	if transitions[1].From != Biased || transitions[1].To != Monitor {
		t.Fatalf("second transition = %+v", transitions[1])
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		f := &feeder{ctl: New(testParams())}
		for i := 0; i < 5_000; i++ {
			f.branch(trace.BranchID(i%13), (i*2654435761)%7 < 3)
		}
		return f.ctl.Stats()
	}
	if run() != run() {
		t.Fatal("identical streams produced different statistics")
	}
}

func TestScaledParams(t *testing.T) {
	p := DefaultParams().Scaled(10)
	if p.MonitorPeriod != 1_000 || p.WaitPeriod != 100_000 ||
		p.OptLatency != 100_000 || p.EvictThreshold != 1_000 {
		t.Fatalf("Scaled(10) = %+v", p)
	}
	if p.SelectThreshold != 0.995 || p.MisspecStep != 50 {
		t.Fatal("Scaled must not change rate semantics")
	}
	if q := DefaultParams().Scaled(1); q != DefaultParams() {
		t.Fatal("Scaled(1) should be the identity")
	}
}

func TestParamBuilders(t *testing.T) {
	p := DefaultParams()
	if !p.WithNoEviction().NoEviction || !p.WithNoRevisit().NoRevisit ||
		!p.WithSamplingEviction().EvictBySampling {
		t.Fatal("builder flags not set")
	}
	if p.WithWaitPeriod(7).WaitPeriod != 7 || p.WithEvictThreshold(9).EvictThreshold != 9 ||
		p.WithOptLatency(3).OptLatency != 3 || p.WithMonitorSampling(8).MonitorSampleRate != 8 {
		t.Fatal("builder values not set")
	}
	if p.NoEviction || p.NoRevisit {
		t.Fatal("builders must not mutate the receiver")
	}
}

func TestStateAndVerdictStrings(t *testing.T) {
	for s, want := range map[State]string{Monitor: "monitor", Biased: "biased", Unbiased: "unbiased", Retired: "retired"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q", s, s.String())
		}
	}
	for v, want := range map[Verdict]string{NotSpeculated: "not-speculated", Correct: "correct", Misspec: "misspec"} {
		if v.String() != want {
			t.Fatalf("Verdict(%d).String() = %q", v, v.String())
		}
	}
	if State(99).String() == "" || Verdict(99).String() == "" {
		t.Fatal("unknown values should still format")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Events: 1000, Instrs: 6000, Correct: 400, Misspec: 2}
	if s.CorrectFrac() != 0.4 {
		t.Fatalf("CorrectFrac = %v", s.CorrectFrac())
	}
	if s.MisspecFrac() != 0.002 {
		t.Fatalf("MisspecFrac = %v", s.MisspecFrac())
	}
	if s.MisspecDistance() != 3000 {
		t.Fatalf("MisspecDistance = %v", s.MisspecDistance())
	}
	var zero Stats
	if zero.CorrectFrac() != 0 {
		t.Fatal("zero stats CorrectFrac should be 0")
	}
}

func TestControllerInvariantsProperty(t *testing.T) {
	// Property: for arbitrary streams, the verdict partition always
	// covers every event, per-branch optimizations never exceed the
	// limit, and eviction counts never exceed optimization counts.
	f := func(outcomes []bool, ids []uint8) bool {
		p := testParams()
		ctl := New(p)
		instr := uint64(0)
		for i, taken := range outcomes {
			id := trace.BranchID(0)
			if i < len(ids) {
				id = trace.BranchID(ids[i] % 5)
			}
			instr += 3
			ctl.OnBranch(id, taken, instr)
		}
		st := ctl.Stats()
		if st.Correct+st.Misspec+st.NotSpec != st.Events {
			return false
		}
		for id := trace.BranchID(0); id < 5; id++ {
			if ctl.Optimizations(id) > p.MaxOptimizations {
				return false
			}
			if ctl.Evictions(id) > ctl.Optimizations(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
