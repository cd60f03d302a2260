// Package harness drives speculation controllers over branch-event streams
// and scores each run in a core.Stats. It is the functional-simulation loop
// of Sections 2 and 3: architecture-independent, tracking each branch's
// interaction with whatever control policy is plugged in.
package harness

import (
	"context"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Controller is any speculation-control policy: a core.Controller under any
// registered policy, a static profile-based one, or an initial-behavior one.
type Controller interface {
	// OnBranch observes one dynamic branch instance at global instruction
	// count instr and reports the speculation outcome.
	OnBranch(id trace.BranchID, taken bool, instr uint64) core.Verdict
}

// instrSink is implemented by controllers that keep their own instruction
// count (core.Controller does, for its Stats' misspeculation distance).
type instrSink interface {
	AddInstrs(n uint64)
}

// Run drives the controller over the whole stream and returns the run's
// statistics: Events, Instrs and the verdict partition. The transition
// counts stay zero; a core.Controller keeps them in its own Stats.
func Run(s trace.Stream, ctl Controller) core.Stats {
	st, _ := run(context.Background(), s, ctl, nil)
	return st
}

// ctxCheckEvery is how many events RunContext processes between context
// polls: frequent enough that cancelation lands within milliseconds, rare
// enough to stay invisible in the hot loop.
const ctxCheckEvery = 1 << 16

// RunContext is Run with cooperative cancelation: it polls ctx every
// ctxCheckEvery events and stops early when the context is done, returning
// the statistics accumulated so far together with the context's error. Long
// sweeps use it so a deadline cancels mid-benchmark, not only between
// benchmarks.
func RunContext(ctx context.Context, s trace.Stream, ctl Controller) (core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, s, ctl, nil)
}

// Observer is an optional per-event callback for experiments that need to
// watch the raw stream alongside the controller (eviction neighborhoods,
// characterization windows, …). It runs after the controller has processed
// the event.
type Observer func(ev trace.Event, instr uint64, v core.Verdict)

// RunObserved is Run with a per-event observer.
func RunObserved(s trace.Stream, ctl Controller, obs Observer) core.Stats {
	st, _ := run(context.Background(), s, ctl, obs)
	return st
}

// run is the one harness loop behind Run, RunContext and RunObserved.
func run(ctx context.Context, s trace.Stream, ctl Controller, obs Observer) (core.Stats, error) {
	var st core.Stats
	sink, _ := ctl.(instrSink)
	instr := uint64(0)
	for {
		if st.Events%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return st, err
			}
		}
		ev, ok := s.Next()
		if !ok {
			return st, nil
		}
		gap := uint64(ev.Gap)
		instr += gap
		if sink != nil {
			sink.AddInstrs(gap)
		}
		st.Instrs += gap
		v := ctl.OnBranch(ev.Branch, ev.Taken, instr)
		st.Count(v)
		if obs != nil {
			obs(ev, instr, v)
		}
	}
}
