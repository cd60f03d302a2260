package server

import (
	"sync"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

func testParams() core.Params { return core.DefaultParams().Scaled(200) }

// synthEvents builds a deterministic mixed stream exercising selections,
// evictions, revisits, and retirals.
func synthEvents(n int, seed uint64) []trace.Event {
	evs := make([]trace.Event, 0, n)
	state := seed
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
		var taken bool
		switch {
		case id < 8:
			taken = next()%500 != 0
		case id < 16:
			taken = (i/700)%2 == 0
		default:
			taken = next()%2 == 0
		}
		evs = append(evs, trace.Event{Branch: id, Taken: taken, Gap: uint32(1 + r%9)})
	}
	return evs
}

// applyRef is the per-event reference the batching pins compare against:
// one event under its shard's lock at absolute instruction count instr, with
// no batch schedule in between.
func applyRef(t *Table, program string, ev trace.Event, instr uint64) Decision {
	pid := t.intern(program)
	sh := t.shardFor(program, ev.Branch)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return t.applyOne(sh.getLocked(entryKey(pid, ev.Branch)), &sh.metrics, ev, instr)
}

// applyAll drives events through the table one at a time with applyRef,
// returning the encoded decision sequence.
func applyAll(t *Table, program string, evs []trace.Event, instr *uint64) []byte {
	out := make([]byte, 0, len(evs))
	for _, ev := range evs {
		*instr += uint64(ev.Gap)
		out = append(out, applyRef(t, program, ev, *instr).Encode())
	}
	return out
}

// TestTableMatchesInProcessController checks the central equivalence claim,
// for every policy: the decisions the table serves for 1024-event wire
// frames are bitwise-identical to a single in-process core.Controller
// observing the same stream, and the table counts what the controller
// counts — the shard totals and transitions per target state, and the
// entries' summed Stats field by field.
func TestTableMatchesInProcessController(t *testing.T) {
	params := testParams()
	evs := synthEvents(60_000, 7)
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			tab, err := NewTablePolicy(params, 16, policy)
			if err != nil {
				t.Fatal(err)
			}
			var instr uint64
			got := applyAllFramed(t, tab, "prog", evs, &instr, 1024)

			ctl, err := core.NewPolicySet(policy, params)
			if err != nil {
				t.Fatal(err)
			}
			var transitions [4]uint64
			ctl.OnTransition = func(tr core.Transition) { transitions[tr.To]++ }
			instr = 0
			for i, ev := range evs {
				instr += uint64(ev.Gap)
				ctl.AddInstrs(uint64(ev.Gap))
				v, st, dir, live := ctl.OnEvent(ev.Branch, ev.Taken, instr)
				want := Decision{Verdict: v, State: st, Dir: dir, Live: live}
				if got[i] != want.Encode() {
					gd, _ := DecodeDecision(got[i])
					t.Fatalf("event %d (branch %d): table %v, in-process %v", i, ev.Branch, gd, want)
				}
			}

			// The aggregate shard counters must add up to the controller's stats.
			var total ShardMetrics
			for _, m := range tab.Metrics() {
				total.Add(m)
			}
			st := ctl.Stats()
			if total.Events != st.Events || total.Instrs != st.Instrs || total.Correct != st.Correct ||
				total.Misspec != st.Misspec || total.NotSpec != st.NotSpec {
				t.Fatalf("table totals %+v, controller stats %+v", total, st)
			}
			if total.Entries == 0 || total.Transitions[core.Biased] == 0 {
				t.Fatalf("expected resident entries and biased transitions, got %+v", total)
			}
			if total.Transitions != transitions {
				t.Fatalf("table transitions %v, controller hook saw %v", total.Transitions, transitions)
			}

			var sum core.Stats
			for _, es := range tab.SnapshotEntries() {
				s := es.Stats
				sum.Events += s.Events
				sum.Instrs += s.Instrs
				sum.Correct += s.Correct
				sum.Misspec += s.Misspec
				sum.NotSpec += s.NotSpec
				sum.Selections += s.Selections
				sum.Evictions += s.Evictions
				sum.Retirals += s.Retirals
			}
			if sum != st {
				t.Fatalf("summed entry stats %+v, controller stats %+v", sum, st)
			}
			// Selftrain never evicts or retires; the other policies must
			// do both here, or the comparison above covers too little.
			if st.Selections == 0 || policy != core.PolicySelfTrain && (st.Evictions == 0 || st.Retirals == 0) {
				t.Fatalf("stream too tame for %s: %+v", policy, st)
			}
		})
	}
}

// TestTableProgramsAreIndependent checks that the same branch ID under two
// programs is tracked separately.
func TestTableProgramsAreIndependent(t *testing.T) {
	tab := NewTable(testParams(), 4)
	var instrA, instrB uint64
	// Program A sees branch 0 always-taken; program B sees it never-taken.
	taken := []trace.Event{{Branch: 0, Taken: true, Gap: 3}}
	notTaken := []trace.Event{{Branch: 0, Taken: false, Gap: 3}}
	for i := 0; i < 5000; i++ {
		_, instrA = tab.ApplyBatchKind("a", trace.KindBranch, taken, instrA, nil)
		_, instrB = tab.ApplyBatchKind("b", trace.KindBranch, notTaken, instrB, nil)
	}
	da := tab.Decide("a", 0)
	db := tab.Decide("b", 0)
	if da.State != core.Biased || db.State != core.Biased {
		t.Fatalf("states %v / %v, want biased / biased", da.State, db.State)
	}
	if !da.Dir || db.Dir {
		t.Fatalf("directions %v / %v, want taken / not-taken", da.Dir, db.Dir)
	}
	if d := tab.Decide("c", 0); d.State != core.Monitor || d.Live {
		t.Fatalf("unknown program decision %v, want monitor/idle", d)
	}
}

// TestTableConcurrentApply hammers the table from many goroutines (the race
// detector validates the striping; the totals validate no event is lost).
func TestTableConcurrentApply(t *testing.T) {
	tab := NewTable(testParams(), 8)
	const (
		workers = 16
		perW    = 20_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			program := string(rune('a' + w%4))
			evs := synthEvents(perW, uint64(w)*977)
			var (
				instr uint64
				dst   []byte
			)
			for off := 0; off < len(evs); off += 64 {
				batch := evs[off:min(off+64, len(evs))]
				dst, instr = tab.ApplyBatchKind(program, trace.KindBranch, batch, instr, dst[:0])
				// Interleave reads to exercise Decide under contention.
				tab.Decide(program, batch[0].Branch)
			}
		}(w)
	}
	wg.Wait()
	var total ShardMetrics
	for _, m := range tab.Metrics() {
		total.Add(m)
	}
	if want := uint64(workers * perW); total.Events != want {
		t.Fatalf("total events %d, want %d", total.Events, want)
	}
}

// TestDecisionEncodeDecode round-trips every representable decision byte.
func TestDecisionEncodeDecode(t *testing.T) {
	for v := core.Verdict(0); v <= core.Misspec; v++ {
		for st := core.Monitor; st <= core.Retired; st++ {
			for _, dir := range []bool{false, true} {
				for _, live := range []bool{false, true} {
					d := Decision{Verdict: v, State: st, Dir: dir, Live: live}
					got, err := DecodeDecision(d.Encode())
					if err != nil {
						t.Fatalf("%v: %v", d, err)
					}
					if got != d {
						t.Fatalf("round trip %v -> %v", d, got)
					}
				}
			}
		}
	}
	if _, err := DecodeDecision(0xff); err == nil {
		t.Fatal("invalid decision byte accepted")
	}
	if _, err := DecodeDecision(0x03); err == nil {
		t.Fatal("invalid verdict accepted")
	}
}
