package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// sparseIDs are branch IDs far above any dense bound: the top bit, the
// largest ID, and one just past a million above a dense range of n.
func sparseIDs(n int) []trace.BranchID {
	return []trace.BranchID{1 << 31, 0xFFFFFFFF, trace.BranchID(n + 1_000_000)}
}

// denseMixEvents returns n events over the dense IDs 0..ids−1 and
// sparseIDs(ids), in a seeded random order. Each ID has its own outcome
// shape, so units select, evict and retire: a third are almost always
// taken, a third flip phase every 900 events, and a third are coin tosses.
func denseMixEvents(n, ids int, seed uint64) []trace.Event {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	sparse := sparseIDs(ids)
	evs := make([]trace.Event, n)
	for i := range evs {
		id := trace.BranchID(rng.IntN(ids))
		if rng.IntN(6) == 0 {
			id = sparse[rng.IntN(len(sparse))]
		}
		var taken bool
		switch id % 3 {
		case 0:
			taken = rng.IntN(400) != 0
		case 1:
			taken = i/900%2 == 0
		default:
			taken = rng.IntN(2) == 0
		}
		evs[i] = trace.Event{Branch: id, Taken: taken, Gap: uint32(1 + rng.IntN(9))}
	}
	return evs
}

// compareTables fails unless got and want, fed the same events, count the
// same per stripe and export the same entries.
func compareTables(t *testing.T, got, want *Table) {
	t.Helper()
	if gm, wm := got.Metrics(), want.Metrics(); !reflect.DeepEqual(gm, wm) {
		t.Fatalf("stripe counters diverge:\ntable:     %+v\nreference: %+v", gm, wm)
	}
	if ge, we := got.SnapshotEntries(), want.SnapshotEntries(); !reflect.DeepEqual(ge, we) {
		t.Fatalf("SnapshotEntries diverge: table exports %d entries, reference %d", len(ge), len(we))
	}
}

// checkDenseBound fails unless every interned program's entry count is
// its number of entries and its dense slots stay within the bound.
func checkDenseBound(t *testing.T, tab *Table) {
	t.Helper()
	counts := map[string]int{}
	for _, es := range tab.SnapshotEntries() {
		counts[es.Program]++
	}
	tab.progs.Range(func(key, value any) bool {
		p := value.(*progRecord)
		p.sh.mu.RLock()
		defer p.sh.mu.RUnlock()
		if p.entries != counts[key.(string)] {
			t.Fatalf("%q counts %d entries, the snapshot holds %d", key, p.entries, counts[key.(string)])
		}
		if bound := max(minDenseSlots, denseSlotsPerEntry*p.entries); cap(p.dense) > bound {
			t.Fatalf("%q holds %d dense slots for %d entries; bound %d", key, cap(p.dense), p.entries, bound)
		}
		return true
	})
}

// TestApplyDenseMatchesRef pins the dense-slot path against applyRef, which
// finds every entry through the flat index alone: for every policy, the
// branch and value kinds and batch sizes 1, 7 and 1024, a stream mixing
// dense IDs with sparse ones in random order gets byte-identical decisions,
// stripe counters and exported entries. The dense range (300 IDs) is larger
// than the initial bound, so IDs are first refused slots and later slotted
// as the program's entry count grows.
func TestApplyDenseMatchesRef(t *testing.T) {
	const ids = 300
	evs := denseMixEvents(12_000, ids, 17)
	for _, policy := range core.PolicyNames() {
		for _, kind := range []trace.Kind{trace.KindBranch, trace.KindValue} {
			for _, batch := range []int{1, 7, 1024} {
				t.Run(fmt.Sprintf("%s/%v/batch=%d", policy, kind, batch), func(t *testing.T) {
					ref, err := NewTablePolicy(testParams(), 4, policy)
					if err != nil {
						t.Fatal(err)
					}
					tab, _ := NewTablePolicy(testParams(), 4, policy)
					key := trace.EncodeKindProgram(kind, "prog")
					var instrA, instrB uint64
					want := applyAll(ref, key, evs, &instrA)
					got := make([]byte, 0, len(evs))
					for off := 0; off < len(evs); off += batch {
						got, instrB = tab.ApplyBatchKind("prog", kind, evs[off:min(off+batch, len(evs))], instrB, got)
					}
					if instrA != instrB {
						t.Fatalf("final instruction count %d, want %d", instrB, instrA)
					}
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("event %d (branch %d): decision %#x, reference %#x", i, evs[i].Branch, got[i], want[i])
					}
					compareTables(t, tab, ref)
					checkDenseBound(t, tab)
					for id := trace.BranchID(0); id < ids; id++ {
						if !tab.DenseSlotted(key, id) {
							t.Fatalf("dense branch %d holds no slot after %d events", id, len(evs))
						}
					}
					for _, id := range sparseIDs(ids) {
						if tab.DenseSlotted(key, id) {
							t.Fatalf("sparse branch %#x holds a dense slot", id)
						}
					}
				})
			}
		}
	}
}

// firstDiff returns the first index where a and b differ, or −1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestDenseSlotsBound pins the dense bound. A program whose IDs are all
// sparse holds no dense slot; a program whose IDs are spread eight apart
// (a stride its entry count cannot cover) never holds more than
// max(64, 4·entries) slots, checked after every batch; a dense program has
// every branch slotted once each has missed again; and RestoreEntries slots
// the dense program's branches within the same bound.
func TestDenseSlotsBound(t *testing.T) {
	tab := NewTable(testParams(), 4)
	rng := rand.New(rand.NewPCG(3, 4))
	var instr [3]uint64
	batch := func(p int, program string, id func() trace.BranchID) {
		evs := make([]trace.Event, 7)
		for i := range evs {
			evs[i] = trace.Event{Branch: id(), Taken: rng.IntN(3) != 0, Gap: 3}
		}
		_, instr[p] = tab.ApplyBatchKind(program, trace.KindBranch, evs, instr[p], nil)
		checkDenseBound(t, tab)
	}
	sparse := sparseIDs(1000)
	for range 300 {
		batch(0, "sparse", func() trace.BranchID { return sparse[rng.IntN(len(sparse))] - trace.BranchID(rng.IntN(1000)) })
		batch(1, "strided", func() trace.BranchID { return 8 * trace.BranchID(rng.IntN(2000)) })
		batch(2, "dense", func() trace.BranchID { return trace.BranchID(rng.IntN(500)) })
	}
	if p, _ := tab.lookup("sparse"); p.dense != nil || p.entries == 0 {
		t.Fatalf("sparse program: %d dense slots for %d entries, want none", len(p.dense), p.entries)
	}
	for id := trace.BranchID(0); id < 500; id++ {
		batch(2, "dense", func() trace.BranchID { return id })
	}
	for id := trace.BranchID(0); id < 500; id++ {
		if !tab.DenseSlotted("dense", id) {
			t.Fatalf("dense program: branch %d holds no slot", id)
		}
	}

	restored := NewTable(testParams(), 4)
	if err := restored.RestoreEntries(tab.SnapshotEntries()); err != nil {
		t.Fatal(err)
	}
	checkDenseBound(t, restored)
	for id := trace.BranchID(0); id < 500; id++ {
		if !restored.DenseSlotted("dense", id) {
			t.Fatalf("restored dense program: branch %d holds no slot", id)
		}
	}
	if p, _ := restored.lookup("sparse"); p.dense != nil {
		t.Fatalf("restored sparse program holds %d dense slots", len(p.dense))
	}
}

// FuzzApplyMatchesRef compares the dense-slot path with applyRef on
// fuzzed streams. The first byte picks the policy, the kind and the batch
// size; every two bytes after it are one event: byte 0's bit 0 is the
// outcome, bits 1–2 the ID range (0 or 1: the dense IDs 0..255;
// 2: the top 256 IDs; 3: 1<<31 up), bits 3–7 the gap, and byte 1 the ID
// within its range.
func FuzzApplyMatchesRef(f *testing.F) {
	seq := []byte{0x25}
	for i := 0; i < 400; i++ {
		seq = append(seq, byte(i*37)|byte(i%2), byte(i*11))
	}
	f.Add(seq)
	f.Add([]byte{0x80, 0, 0, 2, 1, 4, 1, 6, 1, 0, 200, 1, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		policy := core.PolicyNames()[int(data[0])%len(core.PolicyNames())]
		kind := trace.Kind(data[0] >> 2 % byte(trace.KindCount))
		batch := 1 + int(data[0]>>4)*67
		var evs []trace.Event
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			id := trace.BranchID(data[1])
			switch data[0] >> 1 & 3 {
			case 2:
				id = 0xFFFFFFFF - id
			case 3:
				id |= 1 << 31
			}
			evs = append(evs, trace.Event{Branch: id, Taken: data[0]&1 != 0, Gap: uint32(data[0] >> 3)})
		}
		ref, err := NewTablePolicy(testParams(), 2, policy)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := NewTablePolicy(testParams(), 2, policy)
		key := trace.EncodeKindProgram(kind, "fuzz")
		var instrA, instrB uint64
		want := applyAll(ref, key, evs, &instrA)
		var got []byte
		for off := 0; off < len(evs); off += batch {
			got, instrB = tab.ApplyBatchKind("fuzz", kind, evs[off:min(off+batch, len(evs))], instrB, got)
		}
		if instrA != instrB || !bytes.Equal(got, want) {
			t.Fatalf("decisions diverge from the reference at event %d (instr %d vs %d)", firstDiff(got, want), instrB, instrA)
		}
		compareTables(t, tab, ref)
		checkDenseBound(t, tab)
	})
}
