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
// registered policy (selftrain is the Section 2.2 initial-behavior
// mechanism), a bias.Selection (static profile-guided selection), or the
// experiments' periodic-flush policy, which wraps a selftrain controller.
type Controller interface {
	// OnBranch observes one dynamic branch instance at global instruction
	// count instr and reports the speculation outcome.
	OnBranch(id trace.BranchID, taken bool, instr uint64) core.Verdict
}

// instrSink is implemented by controllers that keep their own instruction
// count (core.Controller does, for its Stats' misspeculation distance). The
// harness credits a run's instructions once, when the run ends.
type instrSink interface {
	AddInstrs(n uint64)
}

// Run drives the controller over the whole stream and returns the run's
// statistics: Events, Instrs and the verdict partition. The transition
// counts stay zero; a core.Controller keeps them in its own Stats.
func Run(s trace.Stream, ctl Controller) core.Stats {
	st, _ := run(context.Background(), s, []Controller{ctl}, nil)
	return st[0]
}

// ctxCheckEvery is how many events the loop processes between context
// polls: frequent enough that cancelation lands within milliseconds, rare
// enough to stay invisible in the hot loop.
const ctxCheckEvery = 1 << 16

// RunAll scores every controller on one pass over the stream: each event is
// pulled once and handed to the controllers in slice order, so Stats[i]
// equals what Run returns for ctls[i] over an identical stream. It polls ctx
// every ctxCheckEvery events and stops early when the context is done,
// returning the statistics accumulated so far together with the context's
// error, so a deadline cancels mid-benchmark, not only between benchmarks.
// Every controller stops at the same event.
func RunAll(ctx context.Context, s trace.Stream, ctls ...Controller) ([]core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(ctx, s, ctls, nil)
}

// Observer is an optional per-event callback for experiments that need to
// watch the raw stream alongside the controller (eviction neighborhoods,
// characterization windows, …). It runs after the controller has processed
// the event.
type Observer func(ev trace.Event, instr uint64, v core.Verdict)

// RunObserved is Run with a per-event observer.
func RunObserved(s trace.Stream, ctl Controller, obs Observer) core.Stats {
	st, _ := run(context.Background(), s, []Controller{ctl}, obs)
	return st[0]
}

// run is the one harness loop behind Run, RunAll and
// RunObserved. obs, when non-nil, sees every controller's verdict. Every
// controller sees the same instructions, so Stats.Instrs and each
// instrSink are credited once, when the run ends.
func run(ctx context.Context, s trace.Stream, ctls []Controller, obs Observer) ([]core.Stats, error) {
	st := make([]core.Stats, len(ctls))
	instr := uint64(0)
	var err error
	for events := uint64(0); ; events++ {
		if events%ctxCheckEvery == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		ev, ok := s.Next()
		if !ok {
			break
		}
		instr += uint64(ev.Gap)
		for i, ctl := range ctls {
			v := ctl.OnBranch(ev.Branch, ev.Taken, instr)
			st[i].Count(v)
			if obs != nil {
				obs(ev, instr, v)
			}
		}
	}
	for i, ctl := range ctls {
		st[i].Instrs = instr
		if sink, ok := ctl.(instrSink); ok {
			sink.AddInstrs(instr)
		}
	}
	return st, err
}
