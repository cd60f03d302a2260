package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// internStream is one (program, kind) event stream for the interning tests.
type internStream struct {
	program string
	kind    trace.Kind
	events  []trace.Event
}

// internStreams builds programs × every kind, each with its own events.
func internStreams(programs []string, n int) []internStream {
	var out []internStream
	for i, p := range programs {
		for k := trace.Kind(0); k < trace.KindCount; k++ {
			out = append(out, internStream{program: p, kind: k,
				events: synthEvents(n, uint64(100*i)+uint64(k)+1)})
		}
	}
	return out
}

// internBatchSizes cycles through short and long batches, so each round cuts
// every stream at a different offset.
var internBatchSizes = []int{37, 300, 128, 5}

// ingestInterleaved applies the streams batch by batch, visiting the
// streams in the given order each round, so each stream keeps its own event
// order while the programs are first seen in that order. check, if non-nil,
// sees each batch with its decisions.
func ingestInterleaved(tab *Table, streams []internStream, order []int, check func(s int, batch []trace.Event, dec []byte)) {
	pos := make([]int, len(streams))
	instr := make([]uint64, len(streams))
	var dst []byte
	for round := 0; ; round++ {
		done := true
		for _, s := range order {
			evs := streams[s].events[pos[s]:]
			if len(evs) == 0 {
				continue
			}
			done = false
			n := internBatchSizes[(round+s)%len(internBatchSizes)]
			if n > len(evs) {
				n = len(evs)
			}
			dst, instr[s] = tab.ApplyBatchKind(streams[s].program, streams[s].kind, evs[:n], instr[s], dst[:0])
			if check != nil {
				check(s, evs[:n], dst)
			}
			pos[s] += n
		}
		if done {
			return
		}
	}
}

// snapshotBytes writes the table's entries as a snapshot file and returns
// the file's bytes.
func snapshotBytes(t *testing.T, tab *Table) []byte {
	t.Helper()
	dir := t.TempDir()
	snap := &Snapshot{Version: snapshotVersion, Params: tab.Params(), Policy: tab.Policy(), Entries: tab.SnapshotEntries()}
	if err := WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotIndependentOfInternOrder: program IDs are assigned in
// first-seen order, but snapshots sort by program name, so the same streams
// ingested with programs first seen in different orders — or restored into
// a fresh table, which interns them in snapshot order — export identical
// entries and identical snapshot files.
func TestSnapshotIndependentOfInternOrder(t *testing.T) {
	streams := internStreams([]string{"gamma", "alpha", "delta", "beta"}, 3000)
	forward := make([]int, len(streams))
	backward := make([]int, len(streams))
	for i := range streams {
		forward[i] = i
		backward[i] = len(streams) - 1 - i
	}
	a := NewTable(testParams(), 16)
	ingestInterleaved(a, streams, forward, nil)
	b := NewTable(testParams(), 16)
	ingestInterleaved(b, streams, backward, nil)
	if a.progNames[0] == b.progNames[0] {
		t.Fatalf("both tables interned %q first; the orders must differ", a.progNames[0])
	}

	want := a.SnapshotEntries()
	if len(want) == 0 {
		t.Fatal("no entries")
	}
	if got := b.SnapshotEntries(); !reflect.DeepEqual(got, want) {
		t.Fatal("SnapshotEntries depends on the order programs were first seen")
	}
	wantFile := snapshotBytes(t, a)
	if !bytes.Equal(snapshotBytes(t, b), wantFile) {
		t.Fatal("snapshot file depends on the order programs were first seen")
	}

	restored := NewTable(testParams(), 16)
	if err := restored.RestoreEntries(want); err != nil {
		t.Fatal(err)
	}
	if got := restored.SnapshotEntries(); !reflect.DeepEqual(got, want) {
		t.Fatal("SnapshotEntries differs after a restore into a fresh table")
	}
	if !bytes.Equal(snapshotBytes(t, restored), wantFile) {
		t.Fatal("snapshot file differs after a restore into a fresh table")
	}
}

// TestDecideUnknownCreatesNothing: the read path never interns a program,
// creates an entry or fills a dense slot, whether the program or only the
// branch is unknown, or the branch is known but not yet slotted.
func TestDecideUnknownCreatesNothing(t *testing.T) {
	tab := NewTable(testParams(), 4)
	monitor := Decision{State: core.Monitor}
	if d := tab.Decide("never", 3); d != monitor {
		t.Fatalf("Decide on an unknown program = %+v, want %+v", d, monitor)
	}
	if d := tab.DecideKind("never", trace.KindMemdep, 3); d != monitor {
		t.Fatalf("DecideKind on an unknown program = %+v, want %+v", d, monitor)
	}
	if n := len(tab.progNames); n != 0 {
		t.Fatalf("Decide interned %d program keys", n)
	}
	tab.progs.Range(func(key, _ any) bool {
		t.Fatalf("Decide interned %q", key)
		return false
	})

	var instr uint64
	applyAll(tab, "known", synthEvents(500, 1), &instr)
	entries := func() (n uint64) {
		for _, m := range tab.Metrics() {
			n += m.Entries
		}
		return n
	}
	before := entries()
	if d := tab.Decide("known", 1_000_000); d != monitor {
		t.Fatalf("Decide on an unknown branch = %+v, want %+v", d, monitor)
	}
	if d := tab.DecideKind("known", trace.KindValue, 1); d != monitor {
		t.Fatalf("DecideKind on an unknown kind = %+v, want %+v", d, monitor)
	}
	if after := entries(); after != before {
		t.Fatalf("Decide created entries: %d → %d", before, after)
	}
	if len(tab.progNames) != 1 {
		t.Fatalf("%d program keys interned, want 1", len(tab.progNames))
	}

	// applyAll went through the flat index alone, so no branch is slotted
	// yet; deciding known branches must not slot them, and deciding
	// unknown ones under the dense bound must not grow the slots that
	// one batched apply fills.
	p, _ := tab.lookup("known")
	denseSlots := func() []int32 {
		p.sh.mu.RLock()
		defer p.sh.mu.RUnlock()
		return slices.Clone(p.dense)
	}
	for id := trace.BranchID(0); id < 24; id++ {
		tab.Decide("known", id)
	}
	if d := denseSlots(); d != nil {
		t.Fatalf("Decide on known branches filled %d dense slots", len(d))
	}
	tab.ApplyBatchKind("known", trace.KindBranch, []trace.Event{{Branch: 2, Taken: true, Gap: 1}}, instr, nil)
	want := denseSlots()
	if len(want) == 0 {
		t.Fatal("a batched apply slotted no branch")
	}
	for _, id := range []trace.BranchID{1, 3, 40, minDenseSlots - 1, 1_000_000} {
		tab.Decide("known", id)
	}
	if got := denseSlots(); !slices.Equal(got, want) {
		t.Fatalf("Decide changed the dense slots: %v → %v", want, got)
	}
}

// internMirror is the in-process reference for one (program, kind) stream.
type internMirror struct {
	set   *core.Controller
	instr uint64
}

func (m *internMirror) decide(evs []trace.Event) []byte {
	out := make([]byte, 0, len(evs))
	for _, ev := range evs {
		m.instr += uint64(ev.Gap)
		m.set.AddInstrs(uint64(ev.Gap))
		v, st, dir, live := m.set.OnEvent(ev.Branch, ev.Taken, m.instr)
		out = append(out, Decision{Verdict: v, State: st, Dir: dir, Live: live}.Encode())
	}
	return out
}

// TestTablePoliciesMatchPolicySet: for every policy, a table serving
// interleaved programs and kinds decides each event exactly as a
// core.Controller per (program, kind) stream, and its read path reports each
// mirror unit's final state.
func TestTablePoliciesMatchPolicySet(t *testing.T) {
	streams := internStreams([]string{"p0", "p1", "p2"}, 4000)
	for _, policy := range core.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			tab, err := NewTablePolicy(testParams(), 8, policy)
			if err != nil {
				t.Fatal(err)
			}
			mirrors := make([]internMirror, len(streams))
			order := make([]int, len(streams))
			for i := range mirrors {
				if mirrors[i].set, err = core.NewPolicySet(policy, testParams()); err != nil {
					t.Fatal(err)
				}
				order[i] = i
			}
			ingestInterleaved(tab, streams, order, func(s int, batch []trace.Event, dec []byte) {
				if !bytes.Equal(dec, mirrors[s].decide(batch)) {
					t.Fatalf("%s/%v: table decisions differ from the controller mirror", streams[s].program, streams[s].kind)
				}
			})
			for s, st := range streams {
				for id := trace.BranchID(0); id < 24; id++ {
					dir, live := mirrors[s].set.Speculating(id)
					want := Decision{State: mirrors[s].set.UnitState(id), Dir: dir, Live: live}
					if got := tab.DecideKind(st.program, st.kind, id); got != want {
						t.Fatalf("%s/%v branch %d: Decide = %+v, mirror %+v", st.program, st.kind, id, got, want)
					}
				}
			}
		})
	}
}

// TestInternConcurrentAccess exercises the intern map from every side at
// once: writers ingest programs nobody has seen yet while readers decide,
// scrape metrics and snapshot. Run it under -race. Each writer checks its
// own decisions against a mirror; the final snapshot must hold every
// program.
func TestInternConcurrentAccess(t *testing.T) {
	const (
		writers  = 4
		programs = 6 // per writer
		events   = 600
	)
	tab := NewTable(testParams(), 8)
	evs := synthEvents(events, 9)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				prog := fmt.Sprintf("w%d-p%d", i%writers, i%programs)
				switch r {
				case 0:
					tab.DecideKind(prog, trace.Kind(i%int(trace.KindCount)), trace.BranchID(i%24))
				case 1:
					tab.Metrics()
				default:
					tab.SnapshotEntries()
				}
			}
		}(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 0; p < programs; p++ {
				prog := fmt.Sprintf("w%d-p%d", w, p)
				kind := trace.Kind(p % int(trace.KindCount))
				set, err := core.NewPolicySet(core.PolicyReactive, testParams())
				if err != nil {
					t.Error(err)
					return
				}
				mirror := internMirror{set: set}
				var instr uint64
				var dst []byte
				for i := 0; i < len(evs); i += 150 {
					batch := evs[i : i+150]
					dst, instr = tab.ApplyBatchKind(prog, kind, batch, instr, dst[:0])
					if !bytes.Equal(dst, mirror.decide(batch)) {
						t.Errorf("%s: decisions differ from the mirror", prog)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	seen := map[string]bool{}
	for _, es := range tab.SnapshotEntries() {
		seen[es.Program] = true
	}
	if len(seen) != writers*programs {
		t.Fatalf("snapshot holds %d programs, want %d", len(seen), writers*programs)
	}
}
