package faults

import (
	"testing"

	"reactivespec/internal/trace"
)

// mkEvents builds a deterministic pseudo-random event sequence.
func mkEvents(n int, seed uint64) []trace.Event {
	r := rng{state: seed}
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{
			Branch: trace.BranchID(r.next() % 64),
			Taken:  r.next()&1 == 1,
			Gap:    uint32(1 + r.next()%200),
		}
	}
	return events
}

func totalGap(events []trace.Event) uint64 {
	var g uint64
	for _, ev := range events {
		g += uint64(ev.Gap)
	}
	return g
}

func sameEvents(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// injectors enumerates every injector at a representative non-zero and zero
// intensity, keyed by name.
func injectors(zero bool) map[string]func(s trace.Stream) trace.Stream {
	rate := 0.3
	storm := StormConfig{Period: 50, Window: 30, VictimFrac: 0.5}
	scramble := 0.4
	if zero {
		rate, scramble = 0, 0
		storm = StormConfig{}
	}
	return map[string]func(s trace.Stream) trace.Stream{
		"flip":      func(s trace.Stream) trace.Stream { return Flip(s, rate, 7) },
		"drop":      func(s trace.Stream) trace.Stream { return Drop(s, rate, 7) },
		"duplicate": func(s trace.Stream) trace.Stream { return Duplicate(s, rate, 7) },
		"storm":     func(s trace.Stream) trace.Stream { return Storm(s, storm, 7) },
		"scramble":  func(s trace.Stream) trace.Stream { return Scramble(s, scramble, 1000, 7) },
	}
}

func TestZeroIntensityIsIdentity(t *testing.T) {
	events := mkEvents(500, 1)
	for name, inject := range injectors(true) {
		got := trace.Collect(inject(trace.NewSliceStream(events)))
		if !sameEvents(got, events) {
			t.Errorf("%s at zero intensity altered the stream", name)
		}
	}
	// The zero Mix is the identity too, including no truncation.
	m := Mix{Seed: 9}
	if !m.Zero() {
		t.Fatal("zero Mix not reported Zero")
	}
	got := trace.Collect(m.Apply(trace.NewSliceStream(events), uint64(len(events))))
	if !sameEvents(got, events) {
		t.Fatal("zero Mix altered the stream")
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	events := mkEvents(2000, 2)
	for name, inject := range injectors(false) {
		a := trace.Collect(inject(trace.NewSliceStream(events)))
		b := trace.Collect(inject(trace.NewSliceStream(events)))
		if !sameEvents(a, b) {
			t.Errorf("%s: two streams with the same seed diverged", name)
		}
	}
	// Different seeds must actually perturb differently (flip is the
	// simplest witness).
	a := trace.Collect(Flip(trace.NewSliceStream(events), 0.3, 1))
	b := trace.Collect(Flip(trace.NewSliceStream(events), 0.3, 2))
	if sameEvents(a, b) {
		t.Error("flip: different seeds produced identical corruption")
	}
}

func TestDropConservesGap(t *testing.T) {
	events := mkEvents(3000, 5)
	want := totalGap(events)
	for _, rate := range []float64{0.1, 0.5, 0.9, 1.0} {
		out := trace.Collect(Drop(trace.NewSliceStream(events), rate, 13))
		if got := totalGap(out); got != want {
			t.Errorf("drop rate %v: total gap %d, want %d", rate, got, want)
		}
		if len(out) >= len(events) && rate > 0 {
			t.Errorf("drop rate %v removed no events", rate)
		}
	}
}

func TestDuplicateConservesGap(t *testing.T) {
	events := mkEvents(3000, 6)
	want := totalGap(events)
	out := trace.Collect(Duplicate(trace.NewSliceStream(events), 0.5, 13))
	if got := totalGap(out); got != want {
		t.Errorf("duplicate: total gap %d, want %d", got, want)
	}
	if len(out) <= len(events) {
		t.Error("duplicate added no events")
	}
	for i, ev := range out {
		if ev.Gap < 1 {
			t.Fatalf("event %d has gap %d < 1", i, ev.Gap)
		}
	}
}

func TestDropThenDuplicateConservesGap(t *testing.T) {
	events := mkEvents(3000, 7)
	want := totalGap(events)
	s := Duplicate(Drop(trace.NewSliceStream(events), 0.4, 21), 0.4, 22)
	if got := totalGap(trace.Collect(s)); got != want {
		t.Errorf("drop+duplicate: total gap %d, want %d", got, want)
	}
}

func TestFlipChangesOnlyOutcomes(t *testing.T) {
	events := mkEvents(2000, 8)
	out := trace.Collect(Flip(trace.NewSliceStream(events), 0.25, 13))
	if len(out) != len(events) {
		t.Fatalf("flip changed event count: %d != %d", len(out), len(events))
	}
	flipped := 0
	for i := range out {
		if out[i].Branch != events[i].Branch || out[i].Gap != events[i].Gap {
			t.Fatalf("event %d: flip altered branch or gap", i)
		}
		if out[i].Taken != events[i].Taken {
			flipped++
		}
	}
	if f := float64(flipped) / float64(len(events)); f < 0.15 || f > 0.35 {
		t.Errorf("flip rate 0.25 produced %v observed", f)
	}
}

func TestStormInvertsVictimBias(t *testing.T) {
	// One always-taken branch; a full-coverage storm must produce a window
	// of not-taken outcomes, and nothing outside storms may change.
	events := make([]trace.Event, 5000)
	for i := range events {
		events[i] = trace.Event{Branch: 1, Taken: true, Gap: 10}
	}
	out := trace.Collect(Storm(trace.NewSliceStream(events),
		StormConfig{Period: 500, Window: 200, VictimFrac: 1}, 17))
	inverted := 0
	for _, ev := range out {
		if !ev.Taken {
			inverted++
		}
	}
	if inverted < 100 {
		t.Fatalf("only %d outcomes inverted over 5000 events at period 500, window 200", inverted)
	}
	if inverted == len(out) {
		t.Fatal("storm inverted everything: storms never end")
	}
	// Zero victim fraction leaves the stream alone even with storms active.
	out = trace.Collect(Storm(trace.NewSliceStream(events),
		StormConfig{Period: 500, Window: 200, VictimFrac: 0}, 17))
	for i, ev := range out {
		if !ev.Taken {
			t.Fatalf("event %d inverted with VictimFrac 0", i)
		}
	}
}

func TestTruncateLength(t *testing.T) {
	events := mkEvents(160, 9)
	m := Mix{TruncateFrac: 0.75}
	out := trace.Collect(m.Apply(trace.NewSliceStream(events), uint64(len(events))))
	if len(out) != 40 {
		t.Fatalf("truncating 75%% of 160 events yielded %d events", len(out))
	}
	if !sameEvents(out, events[:40]) {
		t.Fatal("truncate altered the surviving prefix")
	}
}

func TestScrambleStableAndPartial(t *testing.T) {
	events := mkEvents(4000, 10)
	const base = trace.BranchID(1000)
	out := trace.Collect(Scramble(trace.NewSliceStream(events), 0.5, base, 23))
	mapping := map[trace.BranchID]trace.BranchID{}
	scrambled := map[trace.BranchID]bool{}
	for i, ev := range out {
		orig := events[i].Branch
		if ev.Taken != events[i].Taken || ev.Gap != events[i].Gap {
			t.Fatalf("event %d: scramble altered outcome or gap", i)
		}
		if prev, ok := mapping[orig]; ok && prev != ev.Branch {
			t.Fatalf("branch %d mapped to both %d and %d", orig, prev, ev.Branch)
		}
		mapping[orig] = ev.Branch
		if ev.Branch != orig {
			if ev.Branch < base {
				t.Fatalf("scrambled id %d below base %d", ev.Branch, base)
			}
			scrambled[orig] = true
		}
	}
	if len(scrambled) == 0 || len(scrambled) == len(mapping) {
		t.Fatalf("scramble rate 0.5 remapped %d of %d branches", len(scrambled), len(mapping))
	}
}

func TestMixAppliesEverything(t *testing.T) {
	events := mkEvents(2000, 12)
	mix := Mix{
		FlipRate: 0.1, DropRate: 0.1, DupRate: 0.1,
		Storm:        StormConfig{Period: 200, Window: 50, VictimFrac: 0.5},
		ScrambleRate: 0.3, ScrambleBase: 1000,
		TruncateFrac: 0.25,
		Seed:         31,
	}
	if mix.Zero() {
		t.Fatal("non-zero mix reported Zero")
	}
	out := trace.Collect(mix.Apply(trace.NewSliceStream(events), uint64(len(events))))
	if len(out) == 0 || len(out) > 1500+200 {
		t.Fatalf("mix output length %d implausible (truncation to 1500 before dup)", len(out))
	}
	if sameEvents(out, events[:len(out)]) {
		t.Fatal("mix did not perturb the stream")
	}
}
