// Package cpu provides the per-core timing model used by the MSSP simulation
// (Table 5): a width/depth/window-parameterized superscalar core with a real
// gshare/RAS/indirect predictor simulation and a real set-associative cache
// hierarchy simulation.
//
// The model is trace-driven and event-cost based rather than cycle-accurate:
// each instruction costs 1/width cycles, branch mispredictions cost a
// pipeline refill, and memory accesses cost their hierarchy latency minus
// what the instruction window can hide. This reproduces the first-order
// sensitivities the paper's results depend on (speculation removing
// instructions and mispredictions; misspeculation recovery costs) without
// modeling issue-queue microarchitecture.
package cpu

import (
	"reactivespec/internal/bpred"
	"reactivespec/internal/cache"
	"reactivespec/internal/program"
)

// Config describes one core.
type Config struct {
	// Width is the issue width (instructions per cycle).
	Width int
	// Depth is the pipeline depth; a branch misprediction costs Depth
	// cycles of refill.
	Depth int
	// Window is the instruction-window size; it bounds how much memory
	// latency the core can hide.
	Window int
	// L1 is the core's private first-level cache.
	L1 cache.Config
}

// Table 5 core configurations.
var (
	// Leading is the 4-wide, 12-stage, 128-entry-window leading core.
	Leading = Config{Width: 4, Depth: 12, Window: 128, L1: cache.LeadingL1}
	// Trailing is a 2-wide, 8-stage, 24-entry-window trailing core.
	Trailing = Config{Width: 2, Depth: 8, Window: 24, L1: cache.TrailingL1}
)

// Stats aggregates a core's execution counters.
type Stats struct {
	Instrs       uint64
	Cycles       float64
	BranchMisses uint64
	MemStalls    float64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / s.Cycles
}

// Core is one simulated core.
type Core struct {
	cfg  Config
	Mem  *cache.Hierarchy
	Pred *bpred.Unit

	stats Stats
	// blockSeq[region][block] counts the block's memory accesses so far,
	// for deterministic address-stream generation. It grows on first
	// touch.
	blockSeq [][]uint64
}

// New returns a core with the given configuration attached to the shared
// memory system.
func New(cfg Config, coreID int, shared *cache.Shared) *Core {
	return &Core{
		cfg:  cfg,
		Mem:  cache.NewHierarchy(coreID, cfg.L1, shared),
		Pred: bpred.NewUnit(),
	}
}

// Stats returns the core's counters so far.
func (c *Core) Stats() Stats { return c.stats }

// hidden is the memory latency (cycles) the window can overlap.
func (c *Core) hidden() float64 {
	return float64(c.cfg.Window) / float64(c.cfg.Width)
}

// BlockCost describes how a dynamic block should be executed.
type BlockCost struct {
	// SkipBranch omits the terminating branch (it was speculated away by
	// the distiller).
	SkipBranch bool
	// OpsRemoved and LoadsRemoved are distilled-away instruction counts.
	OpsRemoved, LoadsRemoved int
}

// ExecBlock executes one dynamic block and returns the cycles it consumed.
// The step supplies the resolved control transfer; cost describes
// distillation adjustments.
func (c *Core) ExecBlock(blk *program.Block, st program.Step, cost BlockCost) float64 {
	ops := blk.Ops - cost.OpsRemoved
	loads := blk.Loads - cost.LoadsRemoved
	if ops < 0 {
		ops = 0
	}
	if loads < 0 {
		loads = 0
	}
	instrs := ops + loads + blk.Stores
	branchExecuted := blk.Kind != program.KindNone && !cost.SkipBranch
	if branchExecuted {
		instrs++
	}
	cycles := float64(instrs) / float64(c.cfg.Width)

	// Memory accesses: deterministic per-block address stream. Access i
	// of this call is at AddrBase + ((seq+i)·Stride + 8i) mod AddrSpan,
	// so the offset starts at seq·Stride and steps by Stride+8.
	if n := loads + blk.Stores; n > 0 {
		seq := c.seq(st.Region, st.Block)
		var off, step uint64
		if blk.AddrSpan > 0 {
			off = *seq * blk.Stride % blk.AddrSpan
			step = (blk.Stride + 8) % blk.AddrSpan
		}
		*seq += uint64(n)
		hidden := c.hidden()
		for i := 0; i < n; i++ {
			lat := float64(c.Mem.Access(blk.AddrBase+off, i >= loads))
			if stall := lat - hidden; stall > 0 && i < loads {
				// Only loads stall the pipeline; stores retire
				// from the store buffer.
				cycles += stall
				c.stats.MemStalls += stall
			}
			if off += step; off >= blk.AddrSpan {
				off -= blk.AddrSpan
			}
		}
	}

	if branchExecuted {
		correct := true
		switch blk.Kind {
		case program.KindCond:
			correct = c.Pred.Conditional(blk.PC, st.Taken)
		case program.KindIndirect:
			correct = c.Pred.IndirectJump(blk.PC, st.Target)
		case program.KindCall:
			c.Pred.Call(blk.PC + 4)
		case program.KindReturn:
			correct = c.Pred.Return(retAddrFor(st.Region))
		}
		if !correct {
			cycles += float64(c.cfg.Depth)
			c.stats.BranchMisses++
		}
	}
	if st.RegionEntry {
		// Region invocation is a call: push the return address.
		c.Pred.Call(retAddrFor(st.Region))
	}

	c.stats.Instrs += uint64(instrs)
	c.stats.Cycles += cycles
	return cycles
}

// seq returns the access counter of block b in region r, growing
// blockSeq to hold it.
func (c *Core) seq(r, b int) *uint64 {
	if r >= len(c.blockSeq) {
		c.blockSeq = append(c.blockSeq, make([][]uint64, r+1-len(c.blockSeq))...)
	}
	blocks := c.blockSeq[r]
	if b >= len(blocks) {
		blocks = append(blocks, make([]uint64, b+1-len(blocks))...)
		c.blockSeq[r] = blocks
	}
	return &blocks[b]
}

// retAddrFor synthesizes the return address of a region invocation; pushes
// and pops use the same value, so the RAS behaves as in a depth-1 call tree.
func retAddrFor(region int) uint64 { return 0xf000_0000 + uint64(region)*8 }

// ColdStart empties the core's caches and leaves the predictors as-is
// (the paper's runs begin from checkpoints with cold caches).
func (c *Core) ColdStart() { c.Mem.L1.InvalidateAll() }
