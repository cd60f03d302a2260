package bias

import (
	"math"
	"testing"
	"testing/quick"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

func observe(p *Profile, id trace.BranchID, taken bool, n int) {
	for i := 0; i < n; i++ {
		p.Observe(trace.Event{Branch: id, Taken: taken, Gap: 5})
	}
}

func TestCountMajority(t *testing.T) {
	c := Count{Execs: 10, Taken: 7}
	dir, n := c.Majority()
	if !dir || n != 7 {
		t.Fatalf("Majority = (%v, %d), want (true, 7)", dir, n)
	}
	c = Count{Execs: 10, Taken: 3}
	dir, n = c.Majority()
	if dir || n != 7 {
		t.Fatalf("Majority = (%v, %d), want (false, 7)", dir, n)
	}
}

func TestCountBias(t *testing.T) {
	if b := (Count{Execs: 100, Taken: 99}).Bias(); b != 0.99 {
		t.Fatalf("Bias = %v, want 0.99", b)
	}
	if b := (Count{}).Bias(); b != 0 {
		t.Fatalf("empty Bias = %v, want 0", b)
	}
}

func TestProfileAccumulates(t *testing.T) {
	p := NewProfile()
	observe(p, 3, true, 8)
	observe(p, 3, false, 2)
	observe(p, 100, false, 1)
	c := p.Count(3)
	if c.Execs != 10 || c.Taken != 8 {
		t.Fatalf("Count(3) = %+v", c)
	}
	if p.Events() != 11 {
		t.Fatalf("Events = %d", p.Events())
	}
	if p.Instrs() != 55 {
		t.Fatalf("Instrs = %d", p.Instrs())
	}
	if p.Touched() != 2 {
		t.Fatalf("Touched = %d", p.Touched())
	}
	if got := p.Count(999); got.Execs != 0 {
		t.Fatalf("unseen branch Count = %+v", got)
	}
}

func TestProfileBranches(t *testing.T) {
	p := NewProfile()
	observe(p, 5, true, 1)
	observe(p, 2, true, 1)
	ids := p.Branches()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Fatalf("Branches = %v", ids)
	}
}

func TestSelectThreshold(t *testing.T) {
	p := NewProfile()
	observe(p, 0, true, 995)
	observe(p, 0, false, 5) // 99.5% biased
	observe(p, 1, true, 90)
	observe(p, 1, false, 10) // 90% biased
	observe(p, 2, false, 1000)

	sel := p.Select(0.99, 1)
	if sel.Len() != 2 {
		t.Fatalf("selected %d branches, want 2", sel.Len())
	}
	if v := sel.OnBranch(0, true, 1); v != core.Correct {
		t.Fatalf("branch 0 taken verdict = %v; it should be selected taken", v)
	}
	if v := sel.OnBranch(2, false, 1); v != core.Correct {
		t.Fatalf("branch 2 not-taken verdict = %v; it should be selected not-taken", v)
	}
	if v := sel.OnBranch(1, true, 1); v != core.NotSpeculated {
		t.Fatalf("branch 1 verdict = %v; it should not be selected", v)
	}
}

// TestSelectionVerdicts pins a Selection as a static controller: a
// selected branch is scored against its fixed direction from the first
// instruction, and an unselected one is never speculated.
func TestSelectionVerdicts(t *testing.T) {
	events := []trace.Event{
		{Branch: 0, Taken: true, Gap: 1},
		{Branch: 0, Taken: true, Gap: 1},
		{Branch: 1, Taken: false, Gap: 1},
	}
	sel := FromStream(trace.NewSliceStream(events)).Select(0.99, 1)
	if v := sel.OnBranch(0, true, 10); v != core.Correct {
		t.Fatalf("selected branch correct-direction verdict = %v", v)
	}
	if v := sel.OnBranch(0, false, 20); v != core.Misspec {
		t.Fatalf("selected branch wrong-direction verdict = %v", v)
	}
	if v := sel.OnBranch(5, true, 30); v != core.NotSpeculated {
		t.Fatalf("unselected branch verdict = %v", v)
	}
}

func TestSelectionNotTakenDirection(t *testing.T) {
	events := []trace.Event{{Branch: 2, Taken: false, Gap: 1}}
	sel := FromStream(trace.NewSliceStream(events)).Select(0.99, 1)
	if v := sel.OnBranch(2, false, 1); v != core.Correct {
		t.Fatalf("not-taken selection verdict = %v", v)
	}
	if v := sel.OnBranch(2, true, 2); v != core.Misspec {
		t.Fatalf("not-taken selection contrary verdict = %v", v)
	}
}

func TestSelectMinExecs(t *testing.T) {
	p := NewProfile()
	observe(p, 0, true, 5)
	sel := p.Select(0.99, 10)
	if sel.Len() != 0 {
		t.Fatal("branch with 5 execs selected despite minExecs=10")
	}
}

func TestSelectionDecisionsSorted(t *testing.T) {
	p := NewProfile()
	observe(p, 9, true, 100)
	observe(p, 1, false, 100)
	ds := p.Select(0.99, 1).Decisions()
	if len(ds) != 2 || ds[0].Branch != 1 || ds[1].Branch != 9 {
		t.Fatalf("Decisions = %+v", ds)
	}
}

func TestParetoCumulative(t *testing.T) {
	p := NewProfile()
	observe(p, 0, true, 999)
	observe(p, 0, false, 1)
	observe(p, 1, true, 900)
	observe(p, 1, false, 100)
	observe(p, 2, true, 500)
	observe(p, 2, false, 500)

	points := p.Pareto()
	if len(points) != 3 {
		t.Fatalf("Pareto has %d points, want 3", len(points))
	}
	// Bias-descending order.
	if points[0].Bias < points[1].Bias || points[1].Bias < points[2].Bias {
		t.Fatalf("Pareto not sorted by bias: %+v", points)
	}
	// Monotone cumulative fractions.
	for i := 1; i < len(points); i++ {
		if points[i].CorrectF < points[i-1].CorrectF || points[i].WrongF < points[i-1].WrongF {
			t.Fatalf("Pareto not monotone at %d: %+v", i, points)
		}
	}
	last := points[2]
	total := 999.0 + 1 + 900 + 100 + 500 + 500
	if math.Abs(last.CorrectF-(999+900+500)/total) > 1e-12 {
		t.Fatalf("final CorrectF = %v", last.CorrectF)
	}
	if math.Abs(last.WrongF-(1+100+500)/total) > 1e-12 {
		t.Fatalf("final WrongF = %v", last.WrongF)
	}
}

func TestAtThresholdMatchesManualSum(t *testing.T) {
	p := NewProfile()
	observe(p, 0, true, 999)
	observe(p, 0, false, 1)
	observe(p, 1, true, 500)
	observe(p, 1, false, 500)
	pt := p.AtThreshold(0.99)
	if pt.NumStatic != 1 {
		t.Fatalf("NumStatic = %d", pt.NumStatic)
	}
	if math.Abs(pt.CorrectF-999.0/2000) > 1e-12 {
		t.Fatalf("CorrectF = %v", pt.CorrectF)
	}
}

func TestAtThresholdEmptyProfile(t *testing.T) {
	pt := NewProfile().AtThreshold(0.99)
	if pt.CorrectF != 0 || pt.WrongF != 0 {
		t.Fatalf("empty profile AtThreshold = %+v", pt)
	}
}

func TestParetoMonotoneProperty(t *testing.T) {
	// Property: for random profiles, the Pareto curve is monotone
	// non-decreasing in both axes and its last point accounts for every
	// execution.
	f := func(taken []uint16, extra []uint16) bool {
		p := NewProfile()
		var events uint64
		for i, tk := range taken {
			nT := uint64(tk % 200)
			nF := uint64(0)
			if i < len(extra) {
				nF = uint64(extra[i] % 200)
			}
			for j := uint64(0); j < nT; j++ {
				p.Observe(trace.Event{Branch: trace.BranchID(i), Taken: true, Gap: 1})
			}
			for j := uint64(0); j < nF; j++ {
				p.Observe(trace.Event{Branch: trace.BranchID(i), Taken: false, Gap: 1})
			}
			events += nT + nF
		}
		if events == 0 {
			return true
		}
		points := p.Pareto()
		prevC, prevW := 0.0, 0.0
		for _, pt := range points {
			if pt.CorrectF < prevC-1e-12 || pt.WrongF < prevW-1e-12 {
				return false
			}
			prevC, prevW = pt.CorrectF, pt.WrongF
		}
		return math.Abs(prevC+prevW-1.0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSumsCounts(t *testing.T) {
	a := NewProfile()
	observe(a, 0, true, 10)
	observe(a, 1, false, 5)
	b := NewProfile()
	observe(b, 0, false, 3)
	observe(b, 2, true, 7)

	m := Merge(a, b)
	if c := m.Count(0); c.Execs != 13 || c.Taken != 10 {
		t.Fatalf("merged Count(0) = %+v", c)
	}
	if c := m.Count(1); c.Execs != 5 || c.Taken != 0 {
		t.Fatalf("merged Count(1) = %+v", c)
	}
	if c := m.Count(2); c.Execs != 7 || c.Taken != 7 {
		t.Fatalf("merged Count(2) = %+v", c)
	}
	if m.Events() != a.Events()+b.Events() {
		t.Fatalf("merged Events = %d", m.Events())
	}
	if m.Instrs() != a.Instrs()+b.Instrs() {
		t.Fatalf("merged Instrs = %d", m.Instrs())
	}
}

func TestMergeMasksInputDependence(t *testing.T) {
	// A branch 100% taken in one input and 100% not-taken in another must
	// not look biased in the merged profile — the averaging mitigation.
	a := NewProfile()
	observe(a, 0, true, 100)
	b := NewProfile()
	observe(b, 0, false, 100)
	if sel := Merge(a, b).Select(0.99, 1); sel.Len() != 0 {
		t.Fatal("input-dependent branch selected from merged profile")
	}
}

func TestMergeEmpty(t *testing.T) {
	if m := Merge(); m.Events() != 0 || m.Touched() != 0 {
		t.Fatal("empty merge not empty")
	}
}
