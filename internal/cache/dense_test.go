package cache

import (
	"math/rand"
	"testing"
)

// lruModel is a reference set-associative LRU cache: each set lists its
// lines from least to most recently used.
type lruModel struct {
	sets  [][]modelLine
	assoc int
}

type modelLine struct {
	blk   uint64
	dirty bool
}

func (m *lruModel) access(blk uint64, write bool) (hit, dirtyEvict, evict bool) {
	s := m.sets[blk%uint64(len(m.sets))]
	for i, l := range s {
		if l.blk == blk {
			l.dirty = l.dirty || write
			copy(s[i:], s[i+1:])
			s[len(s)-1] = l
			return true, false, false
		}
	}
	if len(s) == m.assoc {
		dirtyEvict, evict = s[0].dirty, true
		s = s[1:]
	}
	m.sets[blk%uint64(len(m.sets))] = append(s, modelLine{blk, write})
	return false, dirtyEvict, evict
}

func (m *lruModel) contains(blk uint64) bool {
	for _, l := range m.sets[blk%uint64(len(m.sets))] {
		if l.blk == blk {
			return true
		}
	}
	return false
}

// TestSetIndexPaths drives a 3-set cache, whose set index takes the
// modulo, and a 4-set cache, whose index is masked, through random
// accesses and periodic InvalidateAll calls, checking each against the
// reference LRU model access by access.
func TestSetIndexPaths(t *testing.T) {
	for _, size := range []int{384, 512} { // 2-way, 64 B blocks: 3 and 4 sets
		c := tiny(size, 2)
		m := &lruModel{sets: make([][]modelLine, size/128), assoc: 2}
		rng := rand.New(rand.NewSource(int64(size)))
		var evicts uint64
		for i := 0; i < 20_000; i++ {
			if i%5_000 == 4_999 {
				c.InvalidateAll()
				for s := range m.sets {
					m.sets[s] = nil
				}
			}
			addr := uint64(rng.Intn(24 * 64))
			write := rng.Intn(3) == 0
			hit, dirty := c.Access(addr, write)
			wantHit, wantDirty, evict := m.access(addr>>6, write)
			if evict {
				evicts++
			}
			if hit != wantHit || dirty != wantDirty {
				t.Fatalf("%d sets, access %d (%#x): hit, dirty evict = %v, %v; want %v, %v",
					size/128, i, addr, hit, dirty, wantHit, wantDirty)
			}
			probe := uint64(rng.Intn(24 * 64))
			if got, want := c.Contains(probe), m.contains(probe>>6); got != want {
				t.Fatalf("%d sets, after access %d: Contains(%#x) = %v, want %v", size/128, i, probe, got, want)
			}
		}
		if c.Hits+c.Misses != 20_000 || c.Evicts != evicts {
			t.Fatalf("%d sets: hits+misses = %d, evicts = %d (want %d)", size/128, c.Hits+c.Misses, c.Evicts, evicts)
		}
	}
}

// FuzzDirectory checks the flat directory against a map holding the
// ownership rule: a write takes ownership, a cross-core read clears it,
// and an access hops iff another core owns the line. Each input expands
// to ops random (core, line, write) accesses over span+1 lines spaced
// stride apart (modulo the directory's line range), enough to cross
// several table growths and deletions.
func FuzzDirectory(f *testing.F) {
	f.Add(int64(1), uint16(20_000), uint16(3_000), uint64(1))
	f.Add(int64(2), uint16(8_000), uint16(500), uint64(64))
	f.Add(int64(3), uint16(30_000), uint16(10_000), uint64(1)<<32+1)
	f.Add(int64(4), uint16(200), uint16(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, ops, span uint16, stride uint64) {
		d := NewDirectory()
		model := make(map[uint64]int)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(ops); i++ {
			core := rng.Intn(9)
			line := uint64(rng.Intn(int(span)+1)) * stride & maxLine
			write := rng.Intn(2) == 0
			prev, owned := model[line]
			wantMoved := owned && prev != core
			if write {
				model[line] = core
			} else if wantMoved {
				delete(model, line)
			}
			if moved := d.access(core, line, write); moved != wantMoved {
				t.Fatalf("access %d (core %d, line %#x, write %v): moved = %v, want %v", i, core, line, write, moved, wantMoved)
			}
			if d.n != len(model) || 4*d.n > 3*len(d.slots) {
				t.Fatalf("after access %d: directory holds %d lines in %d slots, want %d lines, at most 3/4 full",
					i, d.n, len(d.slots), len(model))
			}
		}
		for line, core := range model {
			if s := d.slots[d.slot(line)]; s != line<<ownerBits|uint64(core+1) {
				t.Fatalf("line %#x: slot %#x, want core %d", line, s, core)
			}
		}
	})
}
