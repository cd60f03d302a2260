package core

import "reactivespec/internal/trace"

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
		MonSeen:    u.monSeen,
		MonExecs:   u.monExecs,
		MonTaken:   u.monTaken,
		Direction:  u.direction,
		Counter:    u.counter,
		CyclePos:   u.cyclePos,
		SmpExecs:   u.smpExecs,
		SmpWrong:   u.smpWrong,
		WaitLeft:   u.waitLeft,
		Execs:      u.execs,
		OptCount:   u.optCount,
		Evictions:  u.evictions,
		EverBiased: u.everBiased,
		ProbEst:    u.est,
	}, true
}

// Import overwrites the unit's state with a previously exported snapshot.
func (u *Unit) Import(st BranchState) {
	*u = Unit{
		dep: deployment{
			liveDir:   st.LiveDir,
			liveUntil: st.LiveUntil,
			nextDir:   st.NextDir,
			nextAt:    st.NextAt,
		},
		monSeen:    st.MonSeen,
		monExecs:   st.MonExecs,
		monTaken:   st.MonTaken,
		cyclePos:   st.CyclePos,
		smpExecs:   st.SmpExecs,
		smpWrong:   st.SmpWrong,
		waitLeft:   st.WaitLeft,
		execs:      st.Execs,
		est:        st.ProbEst,
		counter:    st.Counter,
		optCount:   st.OptCount,
		evictions:  st.Evictions,
		state:      st.State,
		direction:  st.Direction,
		everBiased: st.EverBiased,
	}
}

// ExportBranch returns the branch's full state and whether the branch has
// been touched (see Unit.Export).
func (c *Controller) ExportBranch(id trace.BranchID) (BranchState, bool) {
	if int(id) >= len(c.branches) {
		return BranchState{}, false
	}
	return c.branches[id].Export()
}

// ImportBranch overwrites the branch's state with a previously exported
// snapshot. The controller's aggregate Stats are not touched; restore them
// separately with SetStats.
func (c *Controller) ImportBranch(id trace.BranchID, st BranchState) {
	unitAt(&c.branches, id).Import(st)
}

// TouchedBranches returns the IDs of every branch ExportBranch would report
// as touched, in increasing order.
func (c *Controller) TouchedBranches() []trace.BranchID {
	var ids []trace.BranchID
	for i := range c.branches {
		u := &c.branches[i]
		if u.execs == 0 && u.state == Monitor {
			continue
		}
		ids = append(ids, trace.BranchID(i))
	}
	return ids
}

// SetStats overwrites the aggregate counters (snapshot restore).
func (c *Controller) SetStats(s Stats) { c.stats = s }
