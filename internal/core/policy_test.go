package core

import (
	"testing"

	"reactivespec/internal/trace"
)

func TestPolicyRegistry(t *testing.T) {
	for _, name := range append([]string{""}, PolicyNames()...) {
		if !ValidPolicy(name) {
			t.Errorf("ValidPolicy(%q) = false", name)
		}
		if _, err := NewRule(name, testParams()); err != nil {
			t.Errorf("NewRule(%q): %v", name, err)
		}
	}
	if ValidPolicy("zzz") {
		t.Error(`ValidPolicy("zzz") = true`)
	}
	if _, err := NewRule("zzz", testParams()); err == nil {
		t.Error(`NewRule("zzz") built something`)
	}
	if PolicyNames()[0] != PolicyReactive {
		t.Errorf("PolicyNames()[0] = %q, want the default first", PolicyNames()[0])
	}
}

// policyFeeder drives one unit the way a table entry does: a fixed gap per
// event, instruction count accumulated before the step.
type policyFeeder struct {
	rule  Rule
	unit  Unit
	stats Stats
	instr uint64
}

func (f *policyFeeder) event(outcome bool) (Verdict, State, bool, bool) {
	f.instr += 5
	f.stats.Instrs += 5
	from := f.unit.State()
	v := f.rule.Step(&f.unit, outcome, f.instr)
	f.stats.Count(v)
	f.stats.countMove(from, f.unit.State())
	dir, live := f.unit.Speculating()
	return v, f.unit.State(), dir, live
}

func (f *policyFeeder) repeat(outcome bool, n int) (last State) {
	for i := 0; i < n; i++ {
		_, last, _, _ = f.event(outcome)
	}
	return last
}

// TestSelfTrainTerminalStates pins the one-shot classifier: a unit biased
// through its monitoring window deploys permanently (no eviction, however
// wrong it becomes), and an unbiased unit never speculates again.
func TestSelfTrainTerminalStates(t *testing.T) {
	// testParams: MonitorPeriod 10, SelectThreshold 0.9.
	biased := newFeeder(t, PolicySelfTrain)
	biased.repeat(true, 10)
	if st := biased.unit.State(); st != Biased {
		t.Fatalf("state after an all-taken window = %v, want Biased", st)
	}
	// The deployment activates at the next event's tick (OptLatency 0 means
	// "ready now", applied when the next event advances the clock).
	if v, _, dir, live := biased.event(true); v != Correct || !live || !dir {
		t.Fatalf("first deployed event = %v dir=%v live=%v, want Correct/taken/live", v, dir, live)
	}
	// Self-training is open loop: a flipped workload misspeculates forever
	// rather than evicting.
	for i := 0; i < 200; i++ {
		v, st, _, _ := biased.event(false)
		if v != Misspec || st != Biased {
			t.Fatalf("event %d after flip: verdict %v state %v, want Misspec/Biased", i, v, st)
		}
	}
	if biased.stats.Evictions != 0 {
		t.Fatal("self-training policy evicted")
	}

	unbiased := newFeeder(t, PolicySelfTrain)
	for i := 0; i < 10; i++ {
		unbiased.event(i%2 == 0) // 50/50: under the 90% threshold
	}
	if st := unbiased.unit.State(); st != Unbiased {
		t.Fatalf("state after a 50/50 window = %v, want Unbiased", st)
	}
	unbiased.repeat(true, 500)
	if st := unbiased.unit.State(); st != Unbiased {
		t.Fatalf("Unbiased is terminal, but state became %v", st)
	}
	if _, live := unbiased.unit.Speculating(); live {
		t.Fatal("unbiased unit is speculating")
	}
	if s := unbiased.stats; s.Correct != 0 && s.Misspec != 0 {
		t.Fatalf("unbiased unit accumulated speculation verdicts: %+v", s)
	}
}

// initialBehavior returns a selftrain controller at OptLatency 0: the
// Section 2.2 initial-behavior mechanism that Figure 2's crosses and the
// chaos and flush experiments run.
func initialBehavior(t *testing.T, trainLen uint64, threshold float64) *Controller {
	t.Helper()
	c, err := NewPolicySet(PolicySelfTrain, Params{MonitorPeriod: trainLen, SelectThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// selected returns how many units the controller decided to speculate on.
func selected(c *Controller) int {
	_, everBiased, _, _ := c.StaticCounts()
	return everBiased
}

// TestSelfTrainTrainsThenSpeculates: the unit is not speculated during its
// training window, and speculation starts at the very next event.
func TestSelfTrainTrainsThenSpeculates(t *testing.T) {
	c := initialBehavior(t, 10, 0.99)
	for i := 0; i < 10; i++ {
		if v := c.OnBranch(0, true, uint64(i+1)); v != NotSpeculated {
			t.Fatalf("training event %d verdict = %v", i, v)
		}
	}
	if v := c.OnBranch(0, true, 11); v != Correct {
		t.Fatalf("post-training verdict = %v", v)
	}
	if v := c.OnBranch(0, false, 12); v != Misspec {
		t.Fatalf("post-training contrary verdict = %v", v)
	}
	if n := selected(c); n != 1 {
		t.Fatalf("selected = %d", n)
	}
}

func TestSelfTrainRejectsUnbiased(t *testing.T) {
	c := initialBehavior(t, 10, 0.99)
	for i := 0; i < 10; i++ {
		c.OnBranch(0, i%2 == 0, uint64(i+1))
	}
	if v := c.OnBranch(0, true, 11); v != NotSpeculated {
		t.Fatalf("unbiased unit verdict = %v", v)
	}
	if n := selected(c); n != 0 {
		t.Fatalf("selected = %d", n)
	}
}

func TestSelfTrainNeverReconsiders(t *testing.T) {
	c := initialBehavior(t, 5, 0.99)
	for i := 0; i < 5; i++ {
		c.OnBranch(0, true, uint64(i+1))
	}
	// The unit fully reverses; the decision stands (that is the whole
	// problem the paper identifies with this mechanism).
	misspecs := 0
	for i := 0; i < 1000; i++ {
		if c.OnBranch(0, false, uint64(100+i)) == Misspec {
			misspecs++
		}
	}
	if misspecs != 1000 {
		t.Fatalf("reversed unit misspecs = %d, want 1000", misspecs)
	}
}

func TestSelfTrainDirectionFromMajority(t *testing.T) {
	c := initialBehavior(t, 100, 0.95)
	for i := 0; i < 100; i++ {
		c.OnBranch(0, i >= 3, uint64(i+1)) // 97% taken
	}
	if v := c.OnBranch(0, true, 200); v != Correct {
		t.Fatalf("majority-taken verdict = %v", v)
	}
}

func TestSelfTrainIndependentUnits(t *testing.T) {
	c := initialBehavior(t, 4, 0.99)
	for i := 0; i < 4; i++ {
		c.OnBranch(0, true, uint64(i+1))
		c.OnBranch(7, false, uint64(i+1))
	}
	if v := c.OnBranch(0, true, 50); v != Correct {
		t.Fatal("unit 0 should speculate taken")
	}
	if v := c.OnBranch(7, false, 51); v != Correct {
		t.Fatal("unit 7 should speculate not-taken")
	}
	if n := selected(c); n != 2 {
		t.Fatalf("selected = %d", n)
	}
}

// TestSelfTrainWindowClosingAtZero pins deployment.deploy's clamp as
// selftrain meets it: a window that closes at instruction 0 deploys at
// instant 1, not at the next event, since 0 means "nothing pending". No
// generator or fault stream can close a window there — the harness adds
// the first event's gap, at least 1, before the first step — so the clamp
// never moves a figure.
func TestSelfTrainWindowClosingAtZero(t *testing.T) {
	c := initialBehavior(t, 1, 0.99)
	if v := c.OnBranch(0, true, 0); v != NotSpeculated {
		t.Fatalf("training event verdict = %v", v)
	}
	if v := c.OnBranch(0, true, 0); v != NotSpeculated {
		t.Fatalf("event at instruction 0 after the window verdict = %v, want NotSpeculated (live from 1)", v)
	}
	if v := c.OnBranch(0, true, 1); v != Correct {
		t.Fatalf("event at instruction 1 verdict = %v, want Correct", v)
	}
}

// TestProbWeightDeployEvictRetire walks the EWMA policy through its whole
// lifecycle: warmup, deploy on confidence, evict on a behavior flip, and
// retire after MaxOptimizations oscillations.
func TestProbWeightDeployEvictRetire(t *testing.T) {
	f := newFeeder(t, PolicyProbWeight)

	// Warmup: MonitorPeriod (10) events never change state, whatever the
	// confidence.
	if st := f.repeat(true, 10); st != Monitor {
		t.Fatalf("state during warmup = %v, want Monitor", st)
	}
	// The EWMA needs confidence >= 0.9; keep feeding taken until it
	// deploys (alpha 1/32 from 0.5 crosses 0.9 in well under 100 events).
	deployed := false
	for i := 0; i < 200 && !deployed; i++ {
		_, st, _, _ := f.event(true)
		deployed = st == Biased
	}
	if !deployed {
		t.Fatal("probweight never deployed on a constant stream")
	}
	if v, _, dir, live := f.event(true); v != Correct || !live || !dir {
		t.Fatalf("first deployed event = %v dir=%v live=%v, want Correct/taken/live", v, dir, live)
	}

	// A flipped stream first misspeculates, then confidence collapses
	// below EvictBias and the unit evicts back to Monitor.
	evicted := false
	for i := 0; i < 400 && !evicted; i++ {
		_, st, _, _ := f.event(false)
		evicted = st == Monitor
	}
	if !evicted {
		t.Fatal("probweight never evicted after the behavior flip")
	}
	if f.stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", f.stats.Evictions)
	}

	// Drive deploy/evict oscillations until MaxOptimizations (2) is spent:
	// the next selection attempt retires the unit permanently.
	outcome := false
	for i := 0; i < 4000 && f.unit.State() != Retired; i++ {
		if i%300 == 0 {
			outcome = !outcome
		}
		f.event(outcome)
	}
	if st := f.unit.State(); st != Retired {
		t.Fatalf("state after oscillating past MaxOptimizations = %v, want Retired", st)
	}
	if f.stats.Retirals != 1 {
		t.Fatalf("Retirals = %d, want 1", f.stats.Retirals)
	}
	if st := f.repeat(true, 500); st != Retired {
		t.Fatalf("Retired is terminal, but state became %v", st)
	}
}

// TestPolicyExportImportRoundTrip pins the snapshot contract for every
// registered policy: exporting mid-stream and importing into a fresh
// instance reproduces the identical decision tuples for the identical tail.
func TestPolicyExportImportRoundTrip(t *testing.T) {
	outcomes := func(i int) bool { return (i/7+i/13)%2 == 0 } // aperiodic mix
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			orig := newFeeder(t, name)
			for i := 0; i < 500; i++ {
				orig.event(outcomes(i))
			}
			st, ok := orig.unit.Export()
			if !ok {
				t.Fatal("a touched unit exported ok=false")
			}

			clone := newFeeder(t, name)
			clone.instr = orig.instr
			if err := clone.unit.Import(st); err != nil {
				t.Fatal(err)
			}
			clone.stats = orig.stats
			for i := 500; i < 1500; i++ {
				v1, s1, d1, l1 := orig.event(outcomes(i))
				v2, s2, d2, l2 := clone.event(outcomes(i))
				if v1 != v2 || s1 != s2 || d1 != d2 || l1 != l2 {
					t.Fatalf("event %d diverges after round trip: orig (%v %v %v %v), clone (%v %v %v %v)",
						i, v1, s1, d1, l1, v2, s2, d2, l2)
				}
			}
			if orig.stats != clone.stats {
				t.Fatalf("stats diverge: orig %+v clone %+v", orig.stats, clone.stats)
			}
		})
	}

	// An untouched unit exports nothing, for every policy.
	for _, name := range PolicyNames() {
		if _, ok := newFeeder(t, name).unit.Export(); ok {
			t.Fatalf("%s: untouched unit exported ok=true", name)
		}
	}
}

// TestPolicySetMatchesController pins that the two constructors agree for
// the reactive policy: a controller from NewPolicySet and one from New
// produce identical decision tuples and Stats over an interleaved stream.
func TestPolicySetMatchesController(t *testing.T) {
	set, err := NewPolicySet(PolicyReactive, testParams())
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(testParams())
	var instr uint64
	for i := 0; i < 5000; i++ {
		id := trace.BranchID(i % 7)
		outcome := (i/11+int(id))%3 != 0
		instr += 5
		ctl.AddInstrs(5)
		set.AddInstrs(5)
		v1, s1, d1, l1 := set.OnEvent(id, outcome, instr)
		v2 := ctl.OnBranch(id, outcome, instr)
		d2, l2 := ctl.Speculating(id)
		s2 := ctl.UnitState(id)
		if v1 != v2 || s1 != s2 || d1 != d2 || l1 != l2 {
			t.Fatalf("event %d unit %d diverges: set (%v %v %v %v), controller (%v %v %v %v)",
				i, id, v1, s1, d1, l1, v2, s2, d2, l2)
		}
	}
	if set.Stats() != ctl.Stats() {
		t.Fatalf("stats diverge: set %+v controller %+v", set.Stats(), ctl.Stats())
	}
}

// TestPolicySetDeterminism: two sets of the same policy fed the same stream
// agree tuple-for-tuple — the property reactiveload's mirror relies on.
func TestPolicySetDeterminism(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			a, err := NewPolicySet(name, testParams())
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewPolicySet(name, testParams())
			if err != nil {
				t.Fatal(err)
			}
			var instr uint64
			for i := 0; i < 3000; i++ {
				id := trace.BranchID(i % 5)
				outcome := (i*i)%7 < 4
				instr += 3
				v1, s1, d1, l1 := a.OnEvent(id, outcome, instr)
				v2, s2, d2, l2 := b.OnEvent(id, outcome, instr)
				if v1 != v2 || s1 != s2 || d1 != d2 || l1 != l2 {
					t.Fatalf("event %d diverges between identical sets", i)
				}
			}
		})
	}
}

func newFeeder(t *testing.T, name string) *policyFeeder {
	t.Helper()
	r, err := NewRule(name, testParams())
	if err != nil {
		t.Fatal(err)
	}
	return &policyFeeder{rule: r}
}
