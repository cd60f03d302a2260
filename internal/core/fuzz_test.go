package core

import (
	"testing"

	"reactivespec/internal/trace"
)

// FuzzController drives the controller with arbitrary event streams and
// checks its structural invariants: the verdict partition covers every
// event, per-branch counters respect their bounds, and retired branches
// never come back.
func FuzzController(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0xff, 3, 3, 3}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, nBranches uint8) {
		if nBranches == 0 {
			nBranches = 1
		}
		p := Params{
			MonitorPeriod:    4,
			SelectThreshold:  0.75,
			EvictThreshold:   60,
			MisspecStep:      50,
			CorrectStep:      1,
			WaitPeriod:       6,
			MaxOptimizations: 2,
			OptLatency:       uint64(len(data) % 17),
		}
		ctl := New(p)
		retiredAt := make(map[trace.BranchID]bool)
		instr := uint64(0)
		for _, b := range data {
			id := trace.BranchID(b % nBranches)
			taken := b&0x80 != 0
			instr += 1 + uint64(b%7)
			ctl.OnBranch(id, taken, instr)
			if ctl.UnitState(id) == Retired {
				retiredAt[id] = true
			} else if retiredAt[id] {
				t.Fatalf("branch %d left the retired state", id)
			}
		}
		st := ctl.Stats()
		if st.Correct+st.Misspec+st.NotSpec != st.Events {
			t.Fatalf("verdict partition broken: %+v", st)
		}
		if st.Events != uint64(len(data)) {
			t.Fatalf("Events = %d, want %d", st.Events, len(data))
		}
		for id := trace.BranchID(0); id < trace.BranchID(nBranches); id++ {
			if ctl.Optimizations(id) > p.MaxOptimizations {
				t.Fatalf("branch %d optimized %d times (limit %d)",
					id, ctl.Optimizations(id), p.MaxOptimizations)
			}
			if ctl.Evictions(id) > ctl.Optimizations(id) {
				t.Fatalf("branch %d evicted more than selected", id)
			}
		}
	})
}
