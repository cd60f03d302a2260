package server

import (
	"errors"
	"math"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// trainedEntries returns the snapshot of a table trained on a short mixed
// stream under policy: real entries, every one of which RestoreEntries
// must accept.
func trainedEntries(t testing.TB, policy string) []EntrySnapshot {
	t.Helper()
	tab, err := NewTablePolicy(testParams(), 4, policy)
	if err != nil {
		t.Fatal(err)
	}
	tab.ApplyBatchKind("gzip", trace.KindBranch, synthEvents(20_000, 41), 0, nil)
	return tab.SnapshotEntries()
}

// TestRestoreEntriesRejects pins every entry RestoreEntries refuses, and
// that it refuses before touching the table: the bad entry comes last, so
// a restore that imported as it checked would leave the good ones behind.
func TestRestoreEntriesRejects(t *testing.T) {
	good := trainedEntries(t, core.PolicyReactive)
	cases := []struct {
		name string
		bad  func(*EntrySnapshot)
	}{
		{"MonSeen above uint32", func(es *EntrySnapshot) { es.State.MonSeen = math.MaxUint32 + 1 }},
		{"WaitLeft above uint32", func(es *EntrySnapshot) { es.State.WaitLeft = math.MaxUint32 + 1 }},
		{"unknown state", func(es *EntrySnapshot) { es.State.State = core.Retired + 1 }},
		{"untouched", func(es *EntrySnapshot) {
			es.State = core.BranchState{}
			es.Stats = core.Stats{Instrs: es.Stats.Instrs}
		}},
		{"Events != Execs", func(es *EntrySnapshot) { es.Stats.Events++; es.Stats.NotSpec++ }},
		{"NotSpec off by one", func(es *EntrySnapshot) { es.Stats.NotSpec++ }},
		{"verdicts above Events", func(es *EntrySnapshot) {
			es.Stats.Correct = es.Stats.Events + 1
			es.Stats.NotSpec = es.Stats.Events - es.Stats.Correct - es.Stats.Misspec
		}},
		{"Selections above uint32", func(es *EntrySnapshot) { es.Stats.Selections = math.MaxUint32 + 1 }},
		{"Evictions above uint32", func(es *EntrySnapshot) { es.Stats.Evictions = math.MaxUint32 + 1 }},
		{"Retirals above uint32", func(es *EntrySnapshot) { es.Stats.Retirals = math.MaxUint32 + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			entries := append([]EntrySnapshot(nil), good...)
			tc.bad(&entries[len(entries)-1])
			tab := NewTable(testParams(), 4)
			if err := tab.RestoreEntries(entries); !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
			}
			if n := len(tab.SnapshotEntries()); n != 0 {
				t.Fatalf("a rejected restore left %d entries", n)
			}
		})
	}
	tab := NewTable(testParams(), 4)
	if err := tab.RestoreEntries(good); err != nil {
		t.Fatalf("trained entries: %v", err)
	}
}

// TestRestoreFromDiskRejectsBadEntry: a snapshot holding an entry the table
// cannot represent fails RestoreFromDisk with ErrSnapshotMismatch and
// restores nothing, cursors included.
func TestRestoreFromDiskRejectsBadEntry(t *testing.T) {
	dir := t.TempDir()
	entries := trainedEntries(t, core.PolicyReactive)
	entries[len(entries)-1].State.MonExecs = math.MaxUint32 + 1
	if err := WriteSnapshot(dir, &Snapshot{
		Version: snapshotVersion,
		Params:  testParams(),
		Policy:  core.PolicyReactive,
		Cursors: []CursorSnapshot{{Program: "gzip", Instr: 12345, Events: 20_000}},
		Entries: entries,
	}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Params: testParams(), SnapshotDir: dir})
	ok, err := s.RestoreFromDisk()
	if ok || !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("RestoreFromDisk = (%v, %v), want (false, ErrSnapshotMismatch)", ok, err)
	}
	if n := len(s.Table().SnapshotEntries()); n != 0 {
		t.Fatalf("a rejected restore left %d entries", n)
	}
	if n := len(s.exportCursors()); n != 0 {
		t.Fatalf("a rejected restore left %d cursors", n)
	}
}

// FuzzRestoreEntries: any single EntrySnapshot either fails RestoreEntries
// with ErrSnapshotMismatch, leaving the table empty, or round-trips through
// SnapshotEntries exactly. With fix set, the fuzzer's Stats are first made
// consistent with its state and every narrowed field masked to 32 bits, so
// the accepting path gets coverage too and must accept.
func FuzzRestoreEntries(f *testing.F) {
	for _, policy := range core.PolicyNames() {
		for _, es := range trainedEntries(f, policy)[:4] {
			st, s := es.State, es.Stats
			var flags uint8
			for i, b := range []bool{st.LiveDir, st.NextDir, st.Direction, st.EverBiased} {
				if b {
					flags |= 1 << i
				}
			}
			f.Add(es.Program, uint32(es.Branch), uint8(st.State), flags, st.LiveUntil, st.NextAt,
				st.MonSeen, st.MonExecs, st.MonTaken, st.CyclePos, st.SmpExecs, st.SmpWrong, st.WaitLeft,
				st.Counter, st.OptCount, st.Evictions, st.Execs, st.ProbEst,
				s.Events, s.Instrs, s.Correct, s.Misspec, s.NotSpec, s.Selections, s.Evictions, s.Retirals, false)
		}
	}
	f.Fuzz(func(t *testing.T, program string, branch uint32, state, flags uint8, liveUntil, nextAt,
		monSeen, monExecs, monTaken, cyclePos, smpExecs, smpWrong, waitLeft uint64,
		counter, optCount, unitEvictions uint32, execs uint64, probEst float64,
		events, instrs, correct, misspec, notSpec, selections, evictions, retirals uint64, fix bool) {
		es := EntrySnapshot{
			Program: program,
			Branch:  trace.BranchID(branch),
			State: core.BranchState{
				State: core.State(state), LiveDir: flags&1 != 0, LiveUntil: liveUntil,
				NextDir: flags&2 != 0, NextAt: nextAt,
				MonSeen: monSeen, MonExecs: monExecs, MonTaken: monTaken,
				Direction: flags&4 != 0, Counter: counter,
				CyclePos: cyclePos, SmpExecs: smpExecs, SmpWrong: smpWrong, WaitLeft: waitLeft,
				Execs: execs, OptCount: optCount, Evictions: unitEvictions,
				EverBiased: flags&8 != 0, ProbEst: probEst,
			},
			Stats: core.Stats{
				Events: events, Instrs: instrs, Correct: correct, Misspec: misspec, NotSpec: notSpec,
				Selections: selections, Evictions: evictions, Retirals: retirals,
			},
		}
		if fix {
			st, s := &es.State, &es.Stats
			st.State %= core.Retired + 1
			for _, v := range []*uint64{&st.MonSeen, &st.MonExecs, &st.MonTaken, &st.CyclePos,
				&st.SmpExecs, &st.SmpWrong, &st.WaitLeft, &s.Selections, &s.Evictions, &s.Retirals} {
				*v &= math.MaxUint32
			}
			s.Events = st.Execs
			s.Correct = min(s.Correct, s.Events)
			s.Misspec = min(s.Misspec, s.Events-s.Correct)
			s.NotSpec = s.Events - s.Correct - s.Misspec
		}

		tab := NewTable(testParams(), 4)
		err := tab.RestoreEntries([]EntrySnapshot{es})
		got := tab.SnapshotEntries()
		if err != nil {
			if !errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
			}
			if len(got) != 0 {
				t.Fatalf("a rejected restore left %d entries", len(got))
			}
			if fix && !(execs == 0 && es.State.State == core.Monitor) {
				t.Fatalf("a consistent entry was rejected: %v", err)
			}
			return
		}
		if len(got) != 1 {
			t.Fatalf("restored 1 entry, snapshot holds %d", len(got))
		}
		g := got[0]
		gEst, wEst := math.Float64bits(g.State.ProbEst), math.Float64bits(es.State.ProbEst)
		g.State.ProbEst, es.State.ProbEst = 0, 0
		if g != es || gEst != wEst {
			t.Fatalf("round trip changed the entry:\n got %+v (est %#x)\nwant %+v (est %#x)", g, gEst, es, wEst)
		}
	})
}
