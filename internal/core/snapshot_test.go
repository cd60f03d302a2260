package core

import (
	"testing"

	"reactivespec/internal/trace"
)

// synthEvents builds a deterministic mixed stream that drives branches
// through selections, evictions, revisits, and retirals.
func synthEvents(n int) []trace.Event {
	evs := make([]trace.Event, 0, n)
	state := uint64(12345)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < n; i++ {
		r := next()
		id := trace.BranchID(r % 24)
		// Low IDs are strongly biased, middle IDs oscillate slowly with
		// the event index, high IDs are noisy.
		var taken bool
		switch {
		case id < 8:
			taken = next()%1000 != 0
		case id < 16:
			taken = (i/800)%2 == 0
		default:
			taken = next()%2 == 0
		}
		evs = append(evs, trace.Event{Branch: id, Taken: taken, Gap: uint32(1 + r%9)})
	}
	return evs
}

func driveEvents(c *Controller, evs []trace.Event, instr *uint64) []Verdict {
	out := make([]Verdict, 0, len(evs))
	for _, ev := range evs {
		*instr += uint64(ev.Gap)
		c.AddInstrs(uint64(ev.Gap))
		out = append(out, c.OnBranch(ev.Branch, ev.Taken, *instr))
	}
	return out
}

// TestSnapshotRoundTrip checks that exporting every touched unit into a
// fresh controller reproduces the original's future decisions exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	params := DefaultParams().Scaled(100)
	evs := synthEvents(40_000)
	half := len(evs) / 2

	orig := New(params)
	var instrOrig uint64
	driveEvents(orig, evs[:half], &instrOrig)

	restored := New(params)
	restored.units = make([]Unit, len(orig.units))
	var ids []trace.BranchID
	for i := range orig.units {
		st, ok := orig.units[i].Export()
		if !ok {
			continue
		}
		ids = append(ids, trace.BranchID(i))
		if err := restored.units[i].Import(st); err != nil {
			t.Fatal(err)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no branches touched; stream too short")
	}
	restored.stats = orig.Stats()

	instrRestored := instrOrig
	wantVerdicts := driveEvents(orig, evs[half:], &instrOrig)
	gotVerdicts := driveEvents(restored, evs[half:], &instrRestored)
	for i := range wantVerdicts {
		if gotVerdicts[i] != wantVerdicts[i] {
			t.Fatalf("event %d: verdict %v after restore, want %v", i, gotVerdicts[i], wantVerdicts[i])
		}
	}
	for _, id := range ids {
		if g, w := restored.UnitState(id), orig.UnitState(id); g != w {
			t.Fatalf("branch %d: state %v after replay, want %v", id, g, w)
		}
		gd, gl := restored.Speculating(id)
		wd, wl := orig.Speculating(id)
		if gd != wd || gl != wl {
			t.Fatalf("branch %d: speculating (%v,%v), want (%v,%v)", id, gd, gl, wd, wl)
		}
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("stats diverged after replay: %+v vs %+v", restored.Stats(), orig.Stats())
	}
}

// TestExportBranchUntouched checks the untouched-unit contract: only a unit
// that has executed exports, and a controller's grown-but-unexecuted units
// do not.
func TestExportBranchUntouched(t *testing.T) {
	var u Unit
	if _, ok := u.Export(); ok {
		t.Fatal("unseen unit exported as touched")
	}
	c := New(DefaultParams())
	c.OnBranch(3, true, 10)
	var touched []int
	for i := range c.units {
		if _, ok := c.units[i].Export(); ok {
			touched = append(touched, i)
		}
	}
	if len(touched) != 1 || touched[0] != 3 {
		t.Fatalf("touched units = %v, want [3]", touched)
	}
}
