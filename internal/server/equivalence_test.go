package server

import (
	"context"
	"testing"

	"reactivespec/internal/core"
	"reactivespec/internal/faults"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// expectedDecisions replays a stream through a fresh in-process controller
// (the way internal/harness drives it) and records the per-event decision.
func expectedDecisions(params core.Params, s trace.Stream) []Decision {
	ctl := core.New(params)
	var out []Decision
	var instr uint64
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		instr += uint64(ev.Gap)
		ctl.AddInstrs(uint64(ev.Gap))
		v := ctl.OnBranch(ev.Branch, ev.Taken, instr)
		dir, live := ctl.Speculating(ev.Branch)
		out = append(out, Decision{Verdict: v, State: ctl.BranchState(ev.Branch), Dir: dir, Live: live})
	}
}

// TestEndToEndEquivalenceWithHarness is the tentpole acceptance check at the
// package level: a calibrated workload replayed over HTTP produces the same
// controller decisions as the in-process replay of the identical trace
// (bitwise-equal decision sequence). cmd/reactiveload -verify repeats this
// across real sockets.
func TestEndToEndEquivalenceWithHarness(t *testing.T) {
	params := core.DefaultParams().Scaled(100)
	spec := workload.MustBuild("gzip", workload.InputEval, workload.Options{
		EventScale: workload.DefaultEventScale * 0.02,
	})
	_, c := newTestServer(t, Config{Params: params, Shards: 16})

	want := expectedDecisions(params, workload.NewGenerator(spec))

	gen := workload.NewGenerator(spec)
	buf := make([]trace.Event, 2048)
	var got []Decision
	for {
		n := gen.NextBatch(buf)
		if n == 0 {
			break
		}
		ds, err := c.IngestKind(context.Background(), spec.Name, trace.KindBranch, buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ds...)
	}

	if len(got) != len(want) {
		t.Fatalf("%d networked decisions, %d in-process", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: networked %v, in-process %v", i, got[i], want[i])
		}
	}
}

// TestEndToEndEquivalenceUnderFaults repeats the equivalence check with a
// hostile (faulted) stream: the service must track the same decisions the
// in-process controller makes for the identical perturbed trace.
func TestEndToEndEquivalenceUnderFaults(t *testing.T) {
	params := core.DefaultParams().Scaled(100)
	spec := workload.MustBuild("mcf", workload.InputEval, workload.Options{
		EventScale: workload.DefaultEventScale * 0.01,
	})
	mix := faults.IntensityMix(0.4, spec.Events, trace.BranchID(len(spec.Branches)), spec.Seed^0xfa)
	_, c := newTestServer(t, Config{Params: params, Shards: 16})

	want := expectedDecisions(params, mix.Apply(workload.NewGenerator(spec), spec.Events))

	faulted := mix.Apply(workload.NewGenerator(spec), spec.Events)
	var got []Decision
	batch := make([]trace.Event, 0, 1500)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		ds, err := c.IngestKind(context.Background(), spec.Name, trace.KindBranch, batch)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ds...)
		batch = batch[:0]
	}
	for {
		ev, ok := faulted.Next()
		if !ok {
			break
		}
		batch = append(batch, ev)
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()

	if len(got) != len(want) {
		t.Fatalf("%d networked decisions, %d in-process", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: networked %v, in-process %v", i, got[i], want[i])
		}
	}
}
