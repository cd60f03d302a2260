// Adaptive inlining: the reactive controller driving a toy JIT.
//
// The paper's controller is not branch-specific: any repeated binary program
// behavior with a "speculate / don't" decision and a recompilation latency
// fits the model. This example applies it to speculative inlining of virtual
// call sites — the classic JIT deoptimization problem.
//
// Each call site observes a stream of receiver types. Speculating means
// inlining the dominant receiver's method (and the outcome is "did the
// receiver match?"); eviction means deoptimizing and recompiling, which takes
// time. Site A is monomorphic, site B is megamorphic, and site C changes its
// dominant receiver mid-run (a loaded plugin replacing an implementation).
//
// Run with: go run ./examples/adaptiveinline
package main

import (
	"fmt"

	"reactivespec/internal/behavior"
	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// callSite models a virtual call site dispatching over receiver types.
// The controller's binary outcome is "receiver == the site's primary type".
type callSite struct {
	id      trace.BranchID
	name    string
	pattern behavior.Model // true = primary receiver observed
	calls   uint64
}

func main() {
	sites := []*callSite{
		{id: 0, name: "A (monomorphic)", pattern: behavior.Bernoulli{Seed: 1, PTaken: 0.9999}},
		{id: 1, name: "B (megamorphic)", pattern: behavior.Bernoulli{Seed: 2, PTaken: 0.55}},
		{id: 2, name: "C (plugin swap)", pattern: behavior.Segments{Seed: 3, Segs: []behavior.Segment{
			{Len: 40_000, PTaken: 0.9995}, // primary implementation …
			{PTaken: 0.0005},              // … replaced by a plugin
		}}},
	}

	// Recompilation (inlining or deoptimizing) takes ~50k instructions of
	// background compiler work; the controller tolerates that latency.
	params := core.DefaultParams().Scaled(10).WithOptLatency(50_000)
	ctl := core.New(params)
	ctl.OnTransition = func(tr core.Transition) {
		site := sites[tr.Branch]
		switch {
		case tr.To == core.Biased:
			fmt.Printf("  [jit] call %9d: inline %s speculatively\n", site.calls, site.name)
		case tr.From == core.Biased:
			fmt.Printf("  [jit] call %9d: DEOPTIMIZE %s (guard failing)\n", site.calls, site.name)
		case tr.To == core.Retired:
			fmt.Printf("  [jit] call %9d: give up on %s permanently\n", site.calls, site.name)
		}
	}

	fmt.Println("JIT decisions:")
	var instr uint64
	inlined := make([]uint64, len(sites)) // calls executed through inlined code
	guards := make([]uint64, len(sites))  // inlined-guard failures
	for round := 0; round < 100_000; round++ {
		for _, s := range sites {
			match := s.pattern.Outcome(s.calls)
			s.calls++
			instr += 20 // ~20 instructions per call
			ctl.AddInstrs(20)
			switch ctl.OnBranch(s.id, match, instr) {
			case core.Correct:
				inlined[s.id]++
			case core.Misspec:
				guards[s.id]++
			}
		}
	}

	fmt.Println()
	fmt.Printf("%-18s %12s %12s %14s %10s\n", "site", "calls", "inlined", "guard fails", "state")
	for _, s := range sites {
		fmt.Printf("%-18s %12d %12d %14d %10s\n",
			s.name, s.calls, inlined[s.id], guards[s.id], ctl.UnitState(s.id))
	}
	fmt.Println()
	fmt.Println("A stays inlined for its whole life; B is never inlined (the monitor")
	fmt.Println("rejects it); C is inlined, deoptimized when the plugin replaces the")
	fmt.Println("implementation, then re-inlined against the new receiver — at a")
	fmt.Println("guard-failure rate a non-reactive JIT could not guarantee.")
}
