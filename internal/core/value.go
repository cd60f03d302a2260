package core

import "reactivespec/internal/trace"

// maxTracked bounds a load's monitor window to this many distinct values,
// as a hardware or software value profiler would.
const maxTracked = 4

// valueWindow is a load-value unit's monitor window: the first maxTracked
// distinct values the window saw and how often each occurred. Values
// beyond the table count only in the unit's monSeen, so they still weigh
// against the selection threshold.
type valueWindow struct {
	vals   [maxTracked]uint32
	counts [maxTracked]uint32
	used   uint32
}

// add counts one occurrence of v.
func (w *valueWindow) add(v uint32) {
	for i := uint32(0); i < w.used; i++ {
		if w.vals[i] == v {
			w.counts[i]++
			return
		}
	}
	if w.used < maxTracked {
		w.vals[w.used] = v
		w.counts[w.used] = 1
		w.used++
	}
}

// modal returns the window's most frequent value and its count; a tie goes
// to the value seen first.
func (w *valueWindow) modal() (v, n uint32) {
	for i := uint32(0); i < w.used; i++ {
		if w.counts[i] > n {
			v, n = w.vals[i], w.counts[i]
		}
	}
	return v, n
}

// monitorValue is a load-value unit's monitor state for one event: count
// the value (every event; the window takes no MonitorSampleRate) and, at
// the end of the window, settle on the modal value.
func (u *Unit) monitorValue(p *Params, w *valueWindow, v uint32, instr uint64) {
	u.monSeen++
	w.add(v)
	if uint64(u.monSeen) < p.MonitorPeriod {
		return
	}
	spec, hits := w.modal()
	n := u.monSeen
	u.monSeen = 0
	*w = valueWindow{}
	u.settle(p, instr, spec, uint64(hits), uint64(n))
}

// ValueController is the reactive controller for load-value invariance:
// the paper's model carried from branches to loads that produce invariant
// values (Section 2), the behavior behind Figure 1's x.d == 32. Each static
// load is a Unit stepped by the same Figure 4b code as a branch; only its
// monitor window differs, tracking the modal value of up to four distinct
// values, and its biased state speculates that the load keeps producing
// that value. The selection threshold, eviction counter, revisit wait,
// oscillation limit and optimization latency are the Table 2 model,
// unchanged.
//
// Stats, StaticCounts, AddInstrs, UnitState and the OnTransition hook are
// the embedded Controller's (Correct counts loads matching the live
// speculated value). Step loads with OnValue only: the embedded OnBranch
// and OnEvent would step a load as a branch.
type ValueController struct {
	Controller
	windows []valueWindow
}

// NewValueController returns a value-speculation controller. The value
// monitor counts every event and a biased load evicts by its counter, so
// the controller clears params' MonitorSampleRate and EvictBySampling
// (Params reports them cleared). Like New, it panics when the rest of
// params is out of range.
func NewValueController(params Params) *ValueController {
	params.MonitorSampleRate = 0
	params.EvictBySampling = false
	return &ValueController{Controller: *New(params)}
}

// OnValue observes one dynamic instance of load id producing value v at
// global instruction count instr, and returns its verdict against the
// value speculated live at this instant.
func (c *ValueController) OnValue(id int, v uint32, instr uint64) Verdict {
	u := c.unit(trace.BranchID(id))
	if id >= len(c.windows) {
		c.windows = append(c.windows, make([]valueWindow, len(c.units)-len(c.windows))...)
	}
	from := u.state
	verdict := u.step(&c.rule.params, v, instr, &c.windows[id])
	c.stats.Count(verdict)
	if u.state != from {
		c.transition(trace.BranchID(id), from, instr)
	}
	return verdict
}

// Speculating reports whether constant speculation is live for load id
// and, if so, the speculated value. It satisfies distill.ValuePolicy.
func (c *ValueController) Speculating(id int) (uint32, bool) {
	if id >= len(c.units) {
		return 0, false
	}
	d := &c.units[id].dep
	return d.liveSpec, d.live()
}
