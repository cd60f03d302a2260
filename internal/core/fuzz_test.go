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

// FuzzValueMatchesBranch checks that value speculation is the branch FSM
// with a different monitor window: a value controller fed loads whose
// values are 0 and 1 must decide exactly like a branch controller fed the
// same outcomes, event by event — verdict, state, live speculation,
// transitions and Stats. The value monitor ignores MonitorSampleRate and
// EvictBySampling, so the fuzzed Params keep the first at most 1 and the
// second off. The selection threshold stays above one half: at or below it
// an even split can select, and the branch monitor breaks that tie toward
// taken where the value monitor breaks it toward the first value seen.
func FuzzValueMatchesBranch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0xff, 3, 3, 3, 0x81, 0x81}, uint8(3), uint8(4), uint8(200), uint16(60), uint8(50), uint8(1), uint8(6), uint8(2), uint8(5), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(1), uint8(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0, 0}, uint8(1), uint8(2), uint8(255), uint16(3), uint8(2), uint8(1), uint8(1), uint8(4), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nUnits, monitor, threshold uint8, evict uint16, misspec, correct, wait, maxOpt, latency, flags uint8) {
		if nUnits == 0 {
			nUnits = 1
		}
		p := Params{
			MonitorPeriod:     uint64(monitor),
			SelectThreshold:   0.5 + float64(uint(threshold)+1)/250,
			EvictThreshold:    uint32(evict),
			MisspecStep:       uint32(misspec),
			CorrectStep:       uint32(correct),
			WaitPeriod:        uint64(wait),
			MaxOptimizations:  uint32(maxOpt),
			OptLatency:        uint64(latency),
			NoEviction:        flags&1 != 0,
			NoRevisit:         flags&2 != 0,
			MonitorSampleRate: uint32(flags>>2) & 1,
		}
		branch := New(p)
		value := NewValueController(p)
		var btr, vtr []Transition
		branch.OnTransition = func(tr Transition) { btr = append(btr, tr) }
		value.OnTransition = func(tr Transition) { vtr = append(vtr, tr) }
		instr := uint64(0)
		for i, b := range data {
			id := int(b % nUnits)
			taken := b&0x80 != 0
			gap := 1 + uint64(b%7)
			instr += gap
			branch.AddInstrs(gap)
			value.AddInstrs(gap)
			bv := branch.OnBranch(trace.BranchID(id), taken, instr)
			vv := value.OnValue(id, b2u(taken), instr)
			if bv != vv {
				t.Fatalf("event %d (unit %d): verdict %v, branch %v", i, id, vv, bv)
			}
			if bs, vs := branch.UnitState(trace.BranchID(id)), value.UnitState(trace.BranchID(id)); bs != vs {
				t.Fatalf("event %d (unit %d): state %v, branch %v", i, id, vs, bs)
			}
			dir, blive := branch.Speculating(trace.BranchID(id))
			val, vlive := value.Speculating(id)
			if blive != vlive || (blive && (val == 1) != dir) {
				t.Fatalf("event %d (unit %d): speculating (%d, %v), branch (%v, %v)", i, id, val, vlive, dir, blive)
			}
			if len(btr) != len(vtr) || (len(btr) > 0 && btr[len(btr)-1] != vtr[len(vtr)-1]) {
				t.Fatalf("event %d: transitions %v, branch %v", i, vtr, btr)
			}
			if bst, vst := branch.Stats(), value.Stats(); bst != vst {
				t.Fatalf("event %d: stats %+v, branch %+v", i, vst, bst)
			}
		}
		bt, bb, be, br := branch.StaticCounts()
		vt, vb, ve, vr := value.StaticCounts()
		if bt != vt || bb != vb || be != ve || br != vr {
			t.Fatalf("static counts %d/%d/%d/%d, branch %d/%d/%d/%d", vt, vb, ve, vr, bt, bb, be, br)
		}
	})
}
