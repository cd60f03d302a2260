// Package mssp simulates a Master/Slave Speculative Parallelization machine
// (Section 4): an asymmetric chip multiprocessor with one wide leading core
// executing the distilled (unchecked-speculative) program and eight narrow
// trailing cores re-executing the original program at task granularity to
// verify it. Misspeculations are detected by the trailing execution hundreds
// of cycles after they occur and squash the leading core back to verified
// state — the large-penalty regime that motivates reactive speculation
// control.
package mssp

import (
	"math"

	"reactivespec/internal/cache"
	"reactivespec/internal/core"
	"reactivespec/internal/cpu"
	"reactivespec/internal/distill"
	"reactivespec/internal/program"
	"reactivespec/internal/trace"
)

// Config parameterizes the machine. DefaultConfig matches Table 5 and the
// paper's methodology notes.
type Config struct {
	// Slaves is the number of trailing cores (8).
	Slaves int
	// TaskBlocks is the target task length in dynamic blocks; tasks also
	// end at region boundaries.
	TaskBlocks int
	// MaxUnverified bounds the leading core's run-ahead (tasks dispatched
	// but not yet verified); the master stalls when it is reached.
	MaxUnverified int
	// DispatchCycles is the checkpoint-transfer latency from master to a
	// trailing core (a coherence hop).
	DispatchCycles float64
	// RestartCycles is the recovery overhead after a detected
	// misspeculation, on top of waiting for detection itself. Together
	// they yield the ~400-cycle true misspeculation cost the paper
	// measured in its simulated system.
	RestartCycles float64
	// OptLatencyCycles is the dynamic optimizer's (re-)optimization
	// latency (Figure 8 sweeps 0, 10^5 and 10^6).
	OptLatencyCycles uint64
	// RunInstrs is the run length in original dynamic instructions.
	RunInstrs uint64
	// PrecomputedBaseline, when positive, is used as the superscalar
	// baseline cycle count instead of re-simulating it — the baseline
	// depends only on (program, RunInstrs), so callers comparing several
	// machine configurations can compute it once with Baseline.
	PrecomputedBaseline float64
}

// DefaultConfig returns the Table 5 machine.
func DefaultConfig() Config {
	return Config{
		Slaves:         8,
		TaskBlocks:     24,
		MaxUnverified:  16,
		DispatchCycles: cache.HopLatency,
		RestartCycles:  60,
		RunInstrs:      4_000_000,
	}
}

// Result summarizes one simulation.
type Result struct {
	// MasterCycles is the MSSP execution time (master finish plus final
	// verification).
	MasterCycles float64
	// BaselineCycles is the same program run on the leading core alone
	// (the "vanilla superscalar" normalization baseline).
	BaselineCycles float64
	// Tasks and TaskMisspecs count dispatched tasks and squashed tasks.
	Tasks, TaskMisspecs uint64
	// SpecViolations counts individual violated speculations; because a
	// task squashes as a unit, several violations within one task fold
	// into a single task misspeculation (Section 4.3's observation that
	// the machine's misspeculation rate can be noticeably lower than the
	// abstract model predicts).
	SpecViolations uint64
	// OriginalInstrs and DistilledInstrs compare program sizes; their
	// ratio is the distillation benefit.
	OriginalInstrs, DistilledInstrs uint64
	// MasterStats and BaselineStats expose the cores' counters.
	MasterStats, BaselineStats cpu.Stats
	// Reopts and ChangesApplied are the distiller's re-optimization
	// statistics.
	Reopts, ChangesApplied uint64
	// ControllerStats exposes the branch speculation controller's
	// counters; ValueStats those of the value-speculation controller.
	ControllerStats core.Stats
	ValueStats      core.Stats
}

// Speedup returns baseline time over MSSP time.
func (r Result) Speedup() float64 {
	if r.MasterCycles == 0 {
		return 0
	}
	return r.BaselineCycles / r.MasterCycles
}

// policyAdapter exposes a core.Controller as a distill.Policy.
type policyAdapter struct{ ctl *core.Controller }

func (p policyAdapter) Speculation(branch int) (bool, bool) {
	return p.ctl.Speculating(trace.BranchID(branch))
}

// taskStep records one dynamic block of a task.
type taskStep struct {
	step program.Step
	blk  *program.Block
}

// Run simulates the program under the given speculation controller and
// returns both the MSSP time and the superscalar baseline time.
//
// The simulation is task-sequential: the master executes the distilled task,
// dispatches it to the least-loaded trailing core for verification, and — on
// a violated speculation — waits for the trailing core's detection, pays the
// restart penalty, and re-executes the task unspeculatively, exactly the
// squash-to-verified-state recovery the paper describes.
func Run(p *program.Program, ctl *core.Controller, cfg Config) Result {
	shared := cache.NewShared()
	master := cpu.New(cpu.Leading, 0, shared)
	slaves := make([]*slaveState, cfg.Slaves)
	for i := range slaves {
		slaves[i] = &slaveState{core: cpu.New(cpu.Trailing, 1+i, shared)}
	}
	dist := distill.New(p)
	if cfg.OptLatencyCycles > 0 {
		dist.BatchWindow = cfg.OptLatencyCycles
	}
	pol := policyAdapter{ctl}
	// The dynamic optimizer also value-speculates invariant loads
	// (Figure 1's constant-substitution approximation), driven by the
	// same control model.
	vctl := core.NewValueController(ctl.Params())
	ctl.OnTransition = func(tr core.Transition) {
		if tr.To == core.Biased || (tr.From == core.Biased && tr.To == core.Monitor) {
			dist.NoteTransition(int(tr.Branch), tr.Instr)
		}
	}

	exec := program.NewExecutor(p)
	var (
		res          Result
		masterCycle  float64
		origInstrs   uint64
		verifyQueue  []float64 // verification-completion times of in-flight tasks
		task         []taskStep
		lastVerified float64
	)

	flushTask := func() {
		if len(task) == 0 {
			return
		}
		res.Tasks++
		// Distill and execute on the master; detect violations.
		violated := false
		for _, ts := range task {
			cost, bad := dist.Distill(ts.blk, ts.step, pol, vctl)
			if bad {
				violated = true
				res.SpecViolations++
			}
			masterCycle += master.ExecBlock(ts.blk, ts.step, cost)
		}
		// Dispatch verification to the earliest-free trailing core.
		s := slaves[0]
		for _, cand := range slaves[1:] {
			if cand.freeAt < s.freeAt {
				s = cand
			}
		}
		start := math.Max(masterCycle+cfg.DispatchCycles, s.freeAt)
		var slaveCycles float64
		for _, ts := range task {
			slaveCycles += s.core.ExecBlock(ts.blk, ts.step, cpu.BlockCost{})
		}
		verifyDone := start + slaveCycles
		s.freeAt = verifyDone
		lastVerified = math.Max(lastVerified, verifyDone)

		if violated {
			res.TaskMisspecs++
			// The trailing execution detects the misspeculation at
			// verifyDone; the master squashes back to verified
			// state, pays the restart cost, and re-executes the
			// task without the offending speculative code.
			masterCycle = math.Max(masterCycle, verifyDone) + cfg.RestartCycles
			for _, ts := range task {
				masterCycle += master.ExecBlock(ts.blk, ts.step, cpu.BlockCost{})
			}
		}
		// Run-ahead bound: the master stalls once too many tasks are
		// unverified.
		verifyQueue = append(verifyQueue, verifyDone)
		if len(verifyQueue) > cfg.MaxUnverified {
			oldest := verifyQueue[0]
			verifyQueue = verifyQueue[1:]
			if oldest > masterCycle {
				masterCycle = oldest
			}
		}
		task = task[:0]
	}

	for origInstrs < cfg.RunInstrs {
		st := exec.Next()
		blk := &p.Regions[st.Region].Blocks[st.Block]
		if st.RegionEntry {
			flushTask()
			dist.OnRegionEntry(st.Region)
		}
		origInstrs += uint64(blk.Instrs())
		// The controller observes every branch outcome (the trailing
		// cores see the full original execution).
		if st.Branch >= 0 {
			ctl.OnBranch(trace.BranchID(st.Branch), st.Taken, origInstrs)
		}
		if st.ValueLoad >= 0 {
			vctl.OnValue(st.ValueLoad, st.Value, origInstrs)
		}
		ctl.AddInstrs(uint64(blk.Instrs()))
		task = append(task, taskStep{step: st, blk: blk})
		if len(task) >= cfg.TaskBlocks {
			flushTask()
		}
	}
	flushTask()
	res.MasterCycles = math.Max(masterCycle, lastVerified)
	res.OriginalInstrs = origInstrs
	res.DistilledInstrs = master.Stats().Instrs
	res.MasterStats = master.Stats()
	res.Reopts = dist.Reopts
	res.ChangesApplied = dist.ChangesApplied
	res.ControllerStats = ctl.Stats()
	res.ValueStats = vctl.Stats()

	// Baseline: the same dynamic stream on the leading core alone.
	if cfg.PrecomputedBaseline > 0 {
		res.BaselineCycles = cfg.PrecomputedBaseline
	} else {
		res.BaselineCycles, res.BaselineStats = Baseline(p, cfg.RunInstrs)
	}
	return res
}

type slaveState struct {
	core   *cpu.Core
	freeAt float64
}

// Baseline runs the original program on a single leading core and returns
// its cycle count and statistics (the Figure 7/8 normalization baseline).
// A lone core never pays a coherence hop, so its hierarchy has no
// directory.
func Baseline(p *program.Program, runInstrs uint64) (float64, cpu.Stats) {
	c := cpu.New(cpu.Leading, 0, &cache.Shared{L2: cache.New(cache.SharedL2)})
	exec := program.NewExecutor(p)
	var cycles float64
	var instrs uint64
	for instrs < runInstrs {
		st := exec.Next()
		blk := &p.Regions[st.Region].Blocks[st.Block]
		instrs += uint64(blk.Instrs())
		cycles += c.ExecBlock(blk, st, cpu.BlockCost{})
	}
	return cycles, c.Stats()
}
