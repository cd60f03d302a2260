package core

import (
	"fmt"
	"math"
)

// BranchState is the complete serializable state of one tracked branch:
// classification, deployment lifecycle, the monitor/sampling windows, and the
// lifetime counters. Exporting and re-importing a BranchState reproduces the
// branch's future decisions exactly, which is what the serving layer's
// snapshot/restore machinery (internal/server) relies on.
//
// All fields are exported so the struct round-trips through encoding/gob and
// encoding/json unchanged.
type BranchState struct {
	// State is the classification state (Figure 4b).
	State State

	// Deployment lifecycle (the optimization-latency machinery).
	LiveDir   bool
	LiveUntil uint64
	NextDir   bool
	NextAt    uint64

	// Monitor-state window.
	MonSeen  uint64
	MonExecs uint64
	MonTaken uint64

	// Biased-state bookkeeping.
	Direction bool
	Counter   uint32
	CyclePos  uint64
	SmpExecs  uint64
	SmpWrong  uint64

	// Unbiased-state bookkeeping.
	WaitLeft uint64

	// Lifecycle statistics.
	Execs      uint64
	OptCount   uint32
	Evictions  uint32
	EverBiased bool

	// ProbEst is the probweight policy's EWMA estimate. Unused (zero) for
	// the other policies; gob zero-fills it when decoding snapshots written
	// before the field existed.
	ProbEst float64
}

// Export returns the unit's full state and whether the unit has been
// touched (executed at least once or moved out of the default state).
// Untouched units need no snapshot entry: a zero Unit already behaves
// identically.
func (u *Unit) Export() (BranchState, bool) {
	if u.execs == 0 && u.state == Monitor {
		return BranchState{}, false
	}
	return BranchState{
		State:      u.state,
		LiveDir:    u.dep.liveDir,
		LiveUntil:  u.dep.liveUntil,
		NextDir:    u.dep.nextDir,
		NextAt:     u.dep.nextAt,
		MonSeen:    uint64(u.monSeen),
		MonExecs:   uint64(u.monExecs),
		MonTaken:   uint64(u.monTaken),
		Direction:  u.direction,
		Counter:    u.counter,
		CyclePos:   uint64(u.cyclePos),
		SmpExecs:   uint64(u.smpExecs),
		SmpWrong:   uint64(u.smpWrong),
		WaitLeft:   uint64(u.waitLeft),
		Execs:      u.execs,
		OptCount:   u.optCount,
		Evictions:  u.evictions,
		EverBiased: u.everBiased,
		ProbEst:    u.est,
	}, true
}

// Validate reports whether a Unit can hold st: its State is one of the four
// states, and each window counter fits the Unit's 32-bit field. Every state
// Export produces passes.
func (st BranchState) Validate() error {
	if st.State > Retired {
		return fmt.Errorf("core: branch state %v is not a classification state", st.State)
	}
	for _, f := range [...]struct {
		name string
		v    uint64
	}{
		{"MonSeen", st.MonSeen},
		{"MonExecs", st.MonExecs},
		{"MonTaken", st.MonTaken},
		{"CyclePos", st.CyclePos},
		{"SmpExecs", st.SmpExecs},
		{"SmpWrong", st.SmpWrong},
		{"WaitLeft", st.WaitLeft},
	} {
		if f.v > math.MaxUint32 {
			return fmt.Errorf("core: branch state %s = %d exceeds %d", f.name, f.v, uint64(math.MaxUint32))
		}
	}
	return nil
}

// Import overwrites the unit's state with a previously exported snapshot.
// It returns Validate's error, and leaves the unit as it was, when st holds
// a value the unit cannot represent.
func (u *Unit) Import(st BranchState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	*u = Unit{
		dep: deployment{
			liveDir:   st.LiveDir,
			liveUntil: st.LiveUntil,
			nextDir:   st.NextDir,
			nextAt:    st.NextAt,
		},
		monSeen:    uint32(st.MonSeen),
		monExecs:   uint32(st.MonExecs),
		monTaken:   uint32(st.MonTaken),
		cyclePos:   uint32(st.CyclePos),
		smpExecs:   uint32(st.SmpExecs),
		smpWrong:   uint32(st.SmpWrong),
		waitLeft:   uint32(st.WaitLeft),
		execs:      st.Execs,
		est:        st.ProbEst,
		counter:    st.Counter,
		optCount:   st.OptCount,
		evictions:  st.Evictions,
		state:      st.State,
		direction:  st.Direction,
		everBiased: st.EverBiased,
	}
	return nil
}
