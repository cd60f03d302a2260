package harness_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"reactivespec/internal/bias"
	"reactivespec/internal/core"
	"reactivespec/internal/harness"
	"reactivespec/internal/trace"
	"reactivespec/internal/workload"
)

// runAllSpec is a seeded gzip run long enough (well past one context poll
// interval) for the reactive controllers to select and evict under
// param scale 100.
func runAllSpec(t *testing.T) *workload.Spec {
	t.Helper()
	spec, err := workload.Build("gzip", workload.InputEval, workload.Options{
		EventScale: workload.DefaultEventScale * 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runAllFactories builds one fresh controller of every kind the experiment
// drivers score in lockstep: core under each registered policy, a static
// self-training selection, and initial behavior (selftrain at OptLatency 0,
// as Figure 2 runs it).
func runAllFactories(t *testing.T, spec *workload.Spec) (names []string, mk []func() harness.Controller) {
	t.Helper()
	params := core.DefaultParams().Scaled(100)
	for _, pol := range core.PolicyNames() {
		if _, err := core.NewPolicySet(pol, params); err != nil {
			t.Fatal(err)
		}
		names = append(names, "core/"+pol)
		mk = append(mk, func() harness.Controller {
			c, _ := core.NewPolicySet(pol, params)
			return c
		})
	}
	sel := bias.FromStream(workload.NewGenerator(spec)).Select(0.99, 1)
	initial := core.Params{MonitorPeriod: 100, SelectThreshold: 0.99}
	names = append(names, "static", "initial-behavior")
	mk = append(mk,
		func() harness.Controller { return sel },
		func() harness.Controller {
			c, err := core.NewPolicySet(core.PolicySelfTrain, initial)
			if err != nil {
				t.Fatal(err)
			}
			return c
		})
	return names, mk
}

// TestRunAllMatchesRun pins the lockstep driver to the one-controller one:
// every controller scored by one RunAll pass ends exactly where a separate
// Run over a fresh identical stream leaves it — the returned Stats and, for
// a core.Controller, its own transition counts and per-unit lifecycle.
func TestRunAllMatchesRun(t *testing.T) {
	spec := runAllSpec(t)
	names, mk := runAllFactories(t, spec)
	all := make([]harness.Controller, len(mk))
	for i, f := range mk {
		all[i] = f()
	}
	got, err := harness.RunAll(context.Background(), workload.NewGenerator(spec), all...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("RunAll returned %d stats for %d controllers", len(got), len(all))
	}
	selections := uint64(0)
	for i, f := range mk {
		one := f()
		want := harness.Run(workload.NewGenerator(spec), one)
		if got[i] != want {
			t.Errorf("%s: RunAll stats %+v, Run stats %+v", names[i], got[i], want)
		}
		if want.Events != spec.Events {
			t.Errorf("%s: %d events, stream has %d", names[i], want.Events, spec.Events)
		}
		c, ok := all[i].(*core.Controller)
		if !ok {
			continue
		}
		oneC := one.(*core.Controller)
		if c.Stats() != oneC.Stats() {
			t.Errorf("%s: controller Stats after RunAll %+v, after Run %+v", names[i], c.Stats(), oneC.Stats())
		}
		if a, b := fmt.Sprint(c.StaticCounts()), fmt.Sprint(oneC.StaticCounts()); a != b {
			t.Errorf("%s: StaticCounts after RunAll %s, after Run %s", names[i], a, b)
		}
		selections += c.Stats().Selections
	}
	if selections == 0 {
		t.Fatal("no core controller selected a branch; the comparison covers no transitions")
	}
}

func TestRunAllNoControllers(t *testing.T) {
	events := []trace.Event{{Branch: 0, Taken: true, Gap: 1}}
	st, err := harness.RunAll(context.Background(), trace.NewSliceStream(events))
	if err != nil || len(st) != 0 {
		t.Fatalf("RunAll with no controllers = %v, %v; want an empty result", st, err)
	}
}

// cancelAfter is a stream that cancels its context once n events are out.
type cancelAfter struct {
	trace.Stream
	n      uint64
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (trace.Event, bool) {
	if c.n == 0 {
		c.cancel()
	} else {
		c.n--
	}
	return c.Stream.Next()
}

// TestRunAllCanceled cancels mid-stream: every controller stops at the same
// event, short of the end, and the context's error comes back with the
// statistics so far.
func TestRunAllCanceled(t *testing.T) {
	spec := runAllSpec(t)
	names, mk := runAllFactories(t, spec)
	all := make([]harness.Controller, len(mk))
	for i, f := range mk {
		all[i] = f()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &cancelAfter{Stream: workload.NewGenerator(spec), n: 100, cancel: cancel}
	got, err := harness.RunAll(ctx, s, all...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != len(all) {
		t.Fatalf("RunAll returned %d stats for %d controllers", len(got), len(all))
	}
	stop := got[0].Events
	if stop == 0 || stop >= spec.Events {
		t.Fatalf("stopped after %d of %d events; want mid-stream", stop, spec.Events)
	}
	for i, st := range got {
		if st.Events != stop {
			t.Errorf("%s stopped after %d events, %s after %d", names[i], st.Events, names[0], stop)
		}
	}
}
