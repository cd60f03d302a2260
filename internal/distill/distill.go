// Package distill implements the dynamic optimizer's code distiller: it
// turns regions of the original program into approximate (speculative)
// versions with the speculated branches — and the code they make dead —
// removed, with no checking code (the MSSP property that distinguishes it
// from checked-speculation systems like IA-64; see the paper's Figure 1).
//
// The distiller also models the optimizer's hot-region detector and the
// region-granularity re-optimization requests that classification
// transitions trigger, including the batching effect the paper observes
// (about half of re-optimizations apply more than one change).
package distill

import (
	"reactivespec/internal/cpu"
	"reactivespec/internal/program"
)

// Policy supplies the current speculation decisions (live deployments) per
// static branch. core.Controller satisfies it via an adapter in the mssp
// package.
type Policy interface {
	// Speculation reports whether branch id has live speculative code and
	// in which direction.
	Speculation(branch int) (dir bool, live bool)
}

// ValuePolicy supplies the current value-speculation decisions per static
// load (core.ValueController satisfies it).
type ValuePolicy interface {
	// Speculating reports whether constant speculation is live for the
	// load and, if so, the speculated value.
	Speculating(load int) (value uint32, live bool)
}

// NoValues is a ValuePolicy that never speculates (branch-only distillation).
var NoValues ValuePolicy = noValues{}

type noValues struct{}

func (noValues) Speculating(int) (uint32, bool) { return 0, false }

// Distiller tracks which regions have optimized (distilled) versions
// deployed and rewrites dynamic blocks accordingly.
type Distiller struct {
	prog *program.Program
	// HotThreshold is the number of invocations after which a region is
	// considered hot and a distilled version is deployed. The paper
	// parameterizes its detector to find regions "artificially fast" in
	// short runs; the default matches that.
	HotThreshold uint64

	hotCount  []uint64
	optimized []bool

	// Re-optimization bookkeeping.
	pendingUntil []uint64 // per-region: instruction count until which changes batch
	// BatchWindow is the instruction window within which multiple
	// classification changes to one region fold into one re-optimization.
	BatchWindow uint64

	// Stats.
	RegionsOptimized int
	Reopts           uint64
	ChangesApplied   uint64
}

// New returns a distiller for the program.
func New(p *program.Program) *Distiller {
	return &Distiller{
		prog:         p,
		HotThreshold: 4,
		BatchWindow:  100_000,
		hotCount:     make([]uint64, len(p.Regions)),
		optimized:    make([]bool, len(p.Regions)),
		pendingUntil: make([]uint64, len(p.Regions)),
	}
}

// OnRegionEntry notes a region invocation; once hot, the region's distilled
// version is deployed.
func (d *Distiller) OnRegionEntry(region int) {
	if d.optimized[region] {
		return
	}
	d.hotCount[region]++
	if d.hotCount[region] >= d.HotThreshold {
		d.optimized[region] = true
		d.RegionsOptimized++
	}
}

// Optimized reports whether the region currently runs its distilled version.
func (d *Distiller) Optimized(region int) bool { return d.optimized[region] }

// Distill rewrites one dynamic block under the current branch- and
// value-speculation policies. It returns the block cost for the leading core
// and whether executing the distilled code at this step violates a
// speculation (the outcome contradicts a removed branch's assumed direction,
// or the value produced differs from a folded constant).
func (d *Distiller) Distill(blk *program.Block, st program.Step, pol Policy, vpol ValuePolicy) (cpu.BlockCost, bool) {
	if !d.optimized[st.Region] {
		return cpu.BlockCost{}, false
	}
	var cost cpu.BlockCost
	violated := false
	if blk.Kind == program.KindCond && blk.Branch >= 0 {
		if dir, live := pol.Speculation(blk.Branch); live {
			cost.SkipBranch = true
			cost.OpsRemoved += blk.DeadOps
			cost.LoadsRemoved += blk.DeadLoads
			if st.Taken != dir {
				violated = true
			}
		}
	}
	if blk.ValueLoad >= 0 && vpol != nil {
		if v, live := vpol.Speculating(blk.ValueLoad); live {
			cost.OpsRemoved += blk.FoldOps
			cost.LoadsRemoved += blk.FoldLoads
			if st.Value != v {
				violated = true
			}
		}
	}
	return cost, violated
}

// NoteTransition records that a branch's classification changed at the given
// original-instruction count, requiring its region to be re-optimized.
// Changes landing within BatchWindow of an already-pending re-optimization
// of the same region fold into it.
func (d *Distiller) NoteTransition(branch int, instr uint64) {
	if branch < 0 || branch >= len(d.prog.Branches) {
		return
	}
	region := d.prog.Branches[branch].Region
	d.ChangesApplied++
	if instr < d.pendingUntil[region] {
		return // batched into the in-flight re-optimization
	}
	d.Reopts++
	d.pendingUntil[region] = instr + d.BatchWindow
}
