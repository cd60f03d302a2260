package harness

import (
	"math"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// scriptController returns canned verdicts in order.
type scriptController struct {
	verdicts []core.Verdict
	pos      int
	instrs   uint64
}

func (s *scriptController) OnBranch(trace.BranchID, bool, uint64) core.Verdict {
	v := s.verdicts[s.pos%len(s.verdicts)]
	s.pos++
	return v
}

func (s *scriptController) AddInstrs(n uint64) { s.instrs += n }

func TestRunAccountsVerdicts(t *testing.T) {
	events := []trace.Event{
		{Branch: 0, Taken: true, Gap: 5},
		{Branch: 0, Taken: true, Gap: 5},
		{Branch: 0, Taken: true, Gap: 5},
	}
	ctl := &scriptController{verdicts: []core.Verdict{core.Correct, core.Misspec, core.NotSpeculated}}
	st := Run(trace.NewSliceStream(events), ctl)
	if st.Events != 3 || st.Instrs != 15 {
		t.Fatalf("stats %+v", st)
	}
	if st.Correct != 1 || st.Misspec != 1 || st.NotSpec != 1 {
		t.Fatalf("verdict partition %+v", st)
	}
	if ctl.instrs != 15 {
		t.Fatalf("instr sink got %d", ctl.instrs)
	}
}

func TestRunWithRealController(t *testing.T) {
	// An always-taken branch under a tiny reactive controller: after the
	// monitor window everything is correct speculation.
	p := core.Params{
		MonitorPeriod: 10, SelectThreshold: 0.9, EvictThreshold: 100,
		MisspecStep: 50, CorrectStep: 1, WaitPeriod: 50, MaxOptimizations: 5,
	}
	events := make([]trace.Event, 100)
	for i := range events {
		events[i] = trace.Event{Branch: 0, Taken: true, Gap: 2}
	}
	st := Run(trace.NewSliceStream(events), core.New(p))
	if st.Correct != 90 {
		t.Fatalf("correct = %d, want 90 (100 minus the 10-execution monitor window)", st.Correct)
	}
	if st.Misspec != 0 {
		t.Fatalf("misspec = %d", st.Misspec)
	}
}

func TestStatsDerivedQuantities(t *testing.T) {
	st := core.Stats{Events: 200, Instrs: 1000, Correct: 50, Misspec: 4}
	if st.CorrectFrac() != 0.25 || st.MisspecFrac() != 0.02 {
		t.Fatalf("fractions %v %v", st.CorrectFrac(), st.MisspecFrac())
	}
	if st.MisspecDistance() != 250 {
		t.Fatalf("distance %v", st.MisspecDistance())
	}
	if !math.IsInf(core.Stats{Instrs: 10}.MisspecDistance(), 1) {
		t.Fatal("zero-misspec distance should be +Inf")
	}
	if (core.Stats{}).CorrectFrac() != 0 {
		t.Fatal("empty stats should not divide by zero")
	}
}

func TestRunObservedCallsObserver(t *testing.T) {
	events := []trace.Event{
		{Branch: 1, Taken: true, Gap: 3},
		{Branch: 2, Taken: false, Gap: 4},
	}
	ctl := &scriptController{verdicts: []core.Verdict{core.Correct}}
	var seen []trace.Event
	var instrs []uint64
	st := RunObserved(trace.NewSliceStream(events), ctl, func(ev trace.Event, instr uint64, v core.Verdict) {
		seen = append(seen, ev)
		instrs = append(instrs, instr)
		if v != core.Correct {
			t.Fatalf("observer verdict = %v", v)
		}
	})
	if len(seen) != 2 || seen[0].Branch != 1 || seen[1].Branch != 2 {
		t.Fatalf("observer saw %+v", seen)
	}
	if instrs[0] != 3 || instrs[1] != 7 {
		t.Fatalf("observer instruction counts %v", instrs)
	}
	if st.Events != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRunObservedNilObserver(t *testing.T) {
	events := []trace.Event{{Branch: 0, Taken: true, Gap: 1}}
	ctl := &scriptController{verdicts: []core.Verdict{core.Correct}}
	if st := RunObserved(trace.NewSliceStream(events), ctl, nil); st.Events != 1 {
		t.Fatal("nil observer should still run")
	}
}
