package values_test

import (
	"fmt"

	"reactivespec/internal/core"
	"reactivespec/internal/values"
)

// Example applies the reactive model to a load whose produced value is
// invariant until a configuration reload changes it — the Figure 1
// x.d == 32 constant-substitution scenario.
func Example() {
	params := core.Params{
		MonitorPeriod:    100,
		SelectThreshold:  0.995,
		EvictThreshold:   1_000,
		MisspecStep:      50,
		CorrectStep:      1,
		WaitPeriod:       1_000,
		MaxOptimizations: 5,
	}
	ctl := core.NewValueController(params)
	load := values.PhaseConstant{V1: 32, V2: 64, SwitchAt: 3_000}

	var instr uint64
	for n := uint64(0); n < 6_000; n++ {
		instr += 5
		ctl.OnValue(0, load.Value(n), instr)
	}
	v, live := ctl.Speculating(0)
	st := ctl.Stats()
	fmt.Printf("speculating constant %d (live=%v) after %d selections, %d eviction\n",
		v, live, st.Selections, st.Evictions)
	fmt.Printf("correct %.1f%%, incorrect %.2f%%\n",
		100*st.CorrectFrac(), 100*st.MisspecFrac())
	// Output:
	// speculating constant 64 (live=true) after 2 selections, 1 eviction
	// correct 96.3%, incorrect 0.33%
}
