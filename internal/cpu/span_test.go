package cpu

import (
	"testing"

	"reactivespec/internal/cache"
	"reactivespec/internal/program"
)

// TestAddressStreamWraps checks ExecBlock's stepped address stream against
// the closed form on blocks whose span is shorter than one step, so every
// step wraps: two interleaved blocks, each with its own access counter,
// must leave the core's cache counters and stalls equal to a separate
// hierarchy fed (seq+i)·Stride + 8i mod AddrSpan directly. The second
// block's lines overflow the trailing core's 8 KB L1, so an address that
// lands on the wrong line shows up as a changed hit count.
func TestAddressStreamWraps(t *testing.T) {
	c := freshCore(Trailing)
	ref := cache.NewHierarchy(0, Trailing.L1, cache.NewShared())
	var stalls float64
	hidden := float64(Trailing.Window) / float64(Trailing.Width)
	blocks := []struct {
		blk program.Block
		st  program.Step
		seq uint64
	}{
		{blk: program.Block{Ops: 2, Loads: 5, Stores: 3, Kind: program.KindNone, AddrBase: 0x1000, AddrSpan: 200, Stride: 288},
			st: program.Step{Region: 1, Block: 2, Branch: -1}},
		{blk: program.Block{Ops: 1, Loads: 6, Stores: 2, Kind: program.KindNone, AddrBase: 0x8000, AddrSpan: 100_000, Stride: 104_160},
			st: program.Step{Region: 0, Block: 0, Branch: -1}},
	}
	for call := 0; call < 3_000; call++ {
		b := &blocks[call%2]
		c.ExecBlock(&b.blk, b.st, BlockCost{})
		n := uint64(b.blk.Loads + b.blk.Stores)
		for i := uint64(0); i < n; i++ {
			addr := b.blk.AddrBase + ((b.seq+i)*b.blk.Stride+8*i)%b.blk.AddrSpan
			load := i < uint64(b.blk.Loads)
			if stall := float64(ref.Access(addr, !load)) - hidden; stall > 0 && load {
				stalls += stall
			}
		}
		b.seq += n
	}
	got, want := c.Mem, ref
	if got.L1.Hits != want.L1.Hits || got.L1.Misses != want.L1.Misses ||
		got.L1Misses != want.L1Misses || got.L2Misses != want.L2Misses {
		t.Fatalf("L1 hits/misses %d/%d, L2 accesses/misses %d/%d; want %d/%d, %d/%d",
			got.L1.Hits, got.L1.Misses, got.L1Misses, got.L2Misses,
			want.L1.Hits, want.L1.Misses, want.L1Misses, want.L2Misses)
	}
	if c.Stats().MemStalls != stalls {
		t.Fatalf("MemStalls = %v, want %v", c.Stats().MemStalls, stalls)
	}
	if want.L1.Hits == 0 || want.L2Misses == 0 {
		t.Fatalf("stream exercised too little: %d L1 hits, %d L2 misses", want.L1.Hits, want.L2Misses)
	}
}
