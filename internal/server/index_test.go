package server

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// checkIndex fails unless x holds exactly ref, within its load bound.
func checkIndex(t *testing.T, x *flatIndex, ref map[uint64]int32) {
	t.Helper()
	if c := len(x.keys); c < minIndexSlots || c&(c-1) != 0 || len(x.slots) != c {
		t.Fatalf("capacity %d keys / %d slots, want one power of two ≥ %d", c, len(x.slots), minIndexSlots)
	}
	if x.n != len(ref) || 2*x.n > len(x.keys) {
		t.Fatalf("index counts %d keys in %d slots, reference holds %d", x.n, len(x.keys), len(ref))
	}
	seen := 0
	for i, v := range x.slots {
		if v == 0 {
			continue
		}
		seen++
		if want, ok := ref[x.keys[i]]; !ok || want != v-1 {
			t.Fatalf("slot %d holds key %#x → %d; reference has %d (present %v)", i, x.keys[i], v-1, want, ok)
		}
	}
	if seen != len(ref) {
		t.Fatalf("%d occupied slots, reference holds %d keys", seen, len(ref))
	}
}

// longestChain returns the longest probe sequence any stored key needs:
// one plus its distance from its home slot.
func longestChain(x *flatIndex) int {
	mask := len(x.keys) - 1
	longest := 0
	for i, v := range x.slots {
		if v != 0 {
			longest = max(longest, (i-x.home(x.keys[i]))&mask+1)
		}
	}
	return longest
}

// FuzzTableIndex checks the flat index against a map reference. The first 8
// bytes seed the index; every 3 bytes after that are one operation: an op
// byte (bit 0: insert or look up; bits 1–2: key layout) and a 16-bit key
// number. The layouts put the key number in the branch bits, in the program
// bits over a zero branch (the low 32 bits of every such key collide), in
// the top bits, or complemented, so 0 and all-ones keys are reachable.
// Inserting past four keys grows the index.
func FuzzTableIndex(f *testing.F) {
	seq := make([]byte, 8, 8+3*300)
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i%8), byte(i), byte(i/7))
	}
	f.Add(seq)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 1, 0, 0, 6, 0, 0, 7, 0, 0, 2, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed uint64
		if len(data) >= 8 {
			seed, data = binary.LittleEndian.Uint64(data), data[8:]
		}
		x := newFlatIndex(seed)
		ref := map[uint64]int32{}
		for ; len(data) >= 3; data = data[3:] {
			k := uint64(binary.LittleEndian.Uint16(data[1:]))
			var key uint64
			switch data[0] >> 1 & 3 {
			case 0:
				key = k
			case 1:
				key = k << 32
			case 2:
				key = k << 48
			default:
				key = ^k
			}
			want, present := ref[key]
			if data[0]&1 == 0 {
				next := int32(len(ref))
				v, added := x.getOrPut(key, next)
				if added == present || present && v != want || !present && v != next {
					t.Fatalf("getOrPut(%#x, %d) = %d, %v; reference %d, present %v", key, next, v, added, want, present)
				}
				ref[key] = v
			} else if v, ok := x.get(key); ok != present || ok && v != want {
				t.Fatalf("get(%#x) = %d, %v; reference %d, %v", key, v, ok, want, present)
			}
		}
		checkIndex(t, &x, ref)
	})
}

// TestTableIndexBoundsProbeChains floods one program's stripe with 1<<16
// branch IDs in steps of 1<<16, the number of keys the final 1<<17-slot
// index holds. Every key's low 16 bits are zero, so any unseeded hash that
// multiplies the key and keeps its low bits sends them all to one home slot
// and one probe chain 1<<16 long. The seeded mix must keep the longest chain
// short (over 400 seeds it stayed at or under 54 slots; the bound leaves
// room for the tail); and each table must draw its own seed, or a flood
// found against one process would work against every table.
func TestTableIndexBoundsProbeChains(t *testing.T) {
	const (
		n        = 1 << 16
		maxChain = 128
	)
	tab := NewTable(testParams(), 4)
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{Branch: trace.BranchID(i) << 16, Taken: true, Gap: 1}
	}
	tab.ApplyBatchKind("flood", trace.KindBranch, evs, 0, nil)
	x := &tab.shards[tab.shardIndex("flood")].index
	if x.n != n || len(x.keys) != 2*n {
		t.Fatalf("index holds %d keys in %d slots, want %d in %d", x.n, len(x.keys), n, 2*n)
	}
	if c := longestChain(x); c > maxChain {
		t.Fatalf("longest probe chain %d slots, bound %d", c, maxChain)
	}
	a, b := NewTable(testParams(), 1), NewTable(testParams(), 1)
	if a.shards[0].index.seed == b.shards[0].index.seed {
		t.Fatalf("two tables drew the same index seed %#x", a.shards[0].index.seed)
	}
}

// TestTableEntryLayout pins the entry at two cache lines: a field added to
// core.Unit or tableEntry must not silently push every entry onto a third.
func TestTableEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(tableEntry{}); got != 128 {
		t.Errorf("tableEntry is %d B, want 128", got)
	}
	if got := unsafe.Sizeof(core.Unit{}); got != 88 {
		t.Errorf("core.Unit is %d B, want 88", got)
	}
}

// sameStripePrograms returns n program keys that share one stripe in a
// table of shards stripes.
func sameStripePrograms(n, shards int) []string {
	tab := NewTable(testParams(), shards)
	out := []string{"prog-0"}
	for i := 1; len(out) < n; i++ {
		if p := fmt.Sprintf("prog-%d", i); tab.shardIndex(p) == tab.shardIndex(out[0]) {
			out = append(out, p)
		}
	}
	return out
}

// TestTableSameStripeConcurrent ingests programs that share a stripe, at
// both 4 and 16 stripes, concurrently with Decide, Metrics and
// SnapshotEntries readers (run it under -race). Each program's decisions
// must equal applying its events alone, one at a time, and the stripe's
// counters must be the sum of those lone applications; no other stripe may
// count anything.
func TestTableSameStripeConcurrent(t *testing.T) {
	const (
		programs = 3
		events   = 12_000
		batch    = 500
	)
	progs := sameStripePrograms(programs, 16)
	for _, shards := range []int{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tab := NewTable(testParams(), shards)
			si := tab.shardIndex(progs[0])
			for _, p := range progs {
				if tab.shardIndex(p) != si {
					t.Fatalf("%q maps to stripe %d, %q to %d", p, tab.shardIndex(p), progs[0], si)
				}
			}

			var done atomic.Bool
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := 0; !done.Load(); i++ {
						switch r {
						case 0:
							tab.Decide(progs[i%programs], trace.BranchID(i%24))
						case 1:
							tab.Metrics()
						default:
							tab.SnapshotEntries()
						}
					}
				}(r)
			}
			streams := make([][]trace.Event, programs)
			decisions := make([][]byte, programs)
			var writers sync.WaitGroup
			for p := range progs {
				streams[p] = synthEvents(events, uint64(p)*7919+11)
				writers.Add(1)
				go func(p int) {
					defer writers.Done()
					var instr uint64
					decisions[p] = applyAllBatched(tab, progs[p], streams[p], &instr, batch)
				}(p)
			}
			writers.Wait()
			done.Store(true)
			readers.Wait()

			var want ShardMetrics
			for p, prog := range progs {
				alone := NewTable(testParams(), shards)
				var instr uint64
				if string(decisions[p]) != string(applyAll(alone, prog, streams[p], &instr)) {
					t.Fatalf("%s: concurrent decisions differ from applying it alone", prog)
				}
				want.Add(alone.Metrics()[si])
			}
			for i, m := range tab.Metrics() {
				if i == si && m != want {
					t.Fatalf("stripe %d counters %+v, want the sum %+v", i, m, want)
				}
				if i != si && m != (ShardMetrics{}) {
					t.Fatalf("stripe %d counted %+v; every program maps to stripe %d", i, m, si)
				}
			}
		})
	}
}
