package trace

import (
	"testing"
	"testing/quick"
)

func mkEvents(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Branch: BranchID(i % 7), Taken: i%3 == 0, Gap: uint32(1 + i%5)}
	}
	return events
}

func TestSliceStreamYieldsAll(t *testing.T) {
	events := mkEvents(10)
	s := NewSliceStream(events)
	got := Collect(s)
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestSliceStreamExhausted(t *testing.T) {
	s := NewSliceStream(mkEvents(2))
	Collect(s)
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream returned an event")
	}
}

func TestSliceStreamReset(t *testing.T) {
	s := NewSliceStream(mkEvents(5))
	first := Collect(s)
	s.Reset()
	second := Collect(s)
	if len(first) != len(second) {
		t.Fatalf("replay produced %d events, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay event %d differs", i)
		}
	}
}

func TestSliceStreamLen(t *testing.T) {
	if got := NewSliceStream(mkEvents(7)).Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
}

func TestHeadLimits(t *testing.T) {
	events := mkEvents(10)
	got := Collect(Head(NewSliceStream(events), 4))
	if len(got) != 4 {
		t.Fatalf("Head(4) yielded %d events", len(got))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("Head altered the surviving prefix: event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestHeadLargerThanStream(t *testing.T) {
	s := Head(NewSliceStream(mkEvents(3)), 100)
	if got := len(Collect(s)); got != 3 {
		t.Fatalf("Head(100) over 3 events yielded %d", got)
	}
}

func TestHeadZero(t *testing.T) {
	s := Head(NewSliceStream(mkEvents(3)), 0)
	if _, ok := s.Next(); ok {
		t.Fatal("Head(0) yielded an event")
	}
}

func TestFilterKeepsMatching(t *testing.T) {
	events := mkEvents(20)
	s := Filter(NewSliceStream(events), func(ev Event) bool { return ev.Branch == 0 })
	for _, ev := range Collect(s) {
		if ev.Branch != 0 {
			t.Fatalf("filter leaked branch %d", ev.Branch)
		}
	}
}

func TestFilterPreservesInstructionCount(t *testing.T) {
	events := mkEvents(50)
	var total uint64
	for _, ev := range events {
		total += uint64(ev.Gap)
	}
	s := Filter(NewSliceStream(events), func(ev Event) bool { return ev.Branch%2 == 0 })
	var kept uint64
	var lastDropped uint64
	for _, ev := range events {
		if ev.Branch%2 != 0 {
			lastDropped += uint64(ev.Gap)
		}
	}
	for _, ev := range Collect(s) {
		kept += uint64(ev.Gap)
	}
	// Gaps of dropped events fold into the next kept event; only a
	// trailing run of dropped events can lose instruction count.
	trailing := uint64(0)
	for i := len(events) - 1; i >= 0 && events[i].Branch%2 != 0; i-- {
		trailing += uint64(events[i].Gap)
	}
	if kept != total-trailing {
		t.Fatalf("kept %d instructions, want %d (total %d, trailing dropped %d)",
			kept, total-trailing, total, trailing)
	}
	_ = lastDropped
}

func TestFilterEmptyResult(t *testing.T) {
	s := Filter(NewSliceStream(mkEvents(5)), func(Event) bool { return false })
	if _, ok := s.Next(); ok {
		t.Fatal("all-dropping filter yielded an event")
	}
}

func TestCounterTracksTotals(t *testing.T) {
	events := mkEvents(25)
	var instrs uint64
	for _, ev := range events {
		instrs += uint64(ev.Gap)
	}
	c := &Counter{S: NewSliceStream(events)}
	Collect(c)
	if c.Events != uint64(len(events)) {
		t.Fatalf("Counter.Events = %d, want %d", c.Events, len(events))
	}
	if c.Instrs != instrs {
		t.Fatalf("Counter.Instrs = %d, want %d", c.Instrs, instrs)
	}
}

func TestFilterGapFoldingProperty(t *testing.T) {
	// Property: for any event sequence and keep-mod, the sum of gaps of
	// kept output equals the input sum minus trailing dropped gaps.
	f := func(gaps []uint8, mod uint8) bool {
		if mod == 0 {
			mod = 1
		}
		events := make([]Event, len(gaps))
		for i, g := range gaps {
			events[i] = Event{Branch: BranchID(i), Gap: uint32(g%31 + 1)}
		}
		keep := func(ev Event) bool { return uint8(ev.Branch)%mod == 0 }
		var total, trailing uint64
		for _, ev := range events {
			total += uint64(ev.Gap)
		}
		for i := len(events) - 1; i >= 0 && !keep(events[i]); i-- {
			trailing += uint64(events[i].Gap)
		}
		var kept uint64
		for _, ev := range Collect(Filter(NewSliceStream(events), keep)) {
			kept += uint64(ev.Gap)
		}
		return kept == total-trailing
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
