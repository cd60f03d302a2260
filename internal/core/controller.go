package core

import (
	"fmt"
	"math"

	"reactivespec/internal/trace"
)

// State is a branch's classification state.
type State uint8

const (
	// Monitor means the branch's bias is being measured.
	Monitor State = iota
	// Biased means the branch is selected for speculation.
	Biased
	// Unbiased means the branch is not worth speculating on for now.
	Unbiased
	// Retired means the branch exceeded the oscillation limit and will
	// never be speculated on again.
	Retired
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Monitor:
		return "monitor"
	case Biased:
		return "biased"
	case Unbiased:
		return "unbiased"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Verdict reports how one dynamic branch instance interacted with the
// currently deployed speculative code.
type Verdict uint8

const (
	// NotSpeculated means no speculation covered this instance.
	NotSpeculated Verdict = iota
	// Correct means the instance matched the speculated direction.
	Correct
	// Misspec means the instance contradicted the speculated direction.
	Misspec
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case NotSpeculated:
		return "not-speculated"
	case Correct:
		return "correct"
	case Misspec:
		return "misspec"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// Transition describes one classification change, delivered to the optional
// transition hook. Instr is the global dynamic instruction count and Exec the
// branch's execution index at the transition. Counter is the branch's
// saturating eviction counter at the instant of the transition: the eviction
// threshold on a squash-triggered demotion (biased→monitor), and typically
// zero elsewhere.
type Transition struct {
	Branch   trace.BranchID
	From, To State
	Instr    uint64
	Exec     uint64
	Counter  uint32
}

// deployment tracks the lifecycle of the speculative code generated for one
// branch, independent of its classification state: selections become live
// OptLatency instructions later, and evicted code stays live ("lame duck")
// for OptLatency instructions until the repaired code is deployed.
type deployment struct {
	liveUntil uint64 // 0 = not live; math.MaxUint64 = live indefinitely
	nextAt    uint64 // 0 = nothing pending
	liveDir   bool
	nextDir   bool
}

func (d *deployment) tick(instr uint64) {
	if d.liveUntil != 0 && instr >= d.liveUntil {
		d.liveUntil = 0
	}
	if d.nextAt != 0 && instr >= d.nextAt {
		d.liveDir = d.nextDir
		d.liveUntil = math.MaxUint64
		d.nextAt = 0
	}
}

func (d *deployment) live() bool { return d.liveUntil != 0 }

// deploy schedules speculation in direction dir to become live at instant at.
func (d *deployment) deploy(dir bool, at uint64) {
	if at == 0 {
		at = 1
	}
	d.nextDir = dir
	d.nextAt = at
}

// undeploy schedules the currently live speculation to be removed at instant
// at.
func (d *deployment) undeploy(at uint64) {
	if at == 0 {
		at = 1
	}
	if d.liveUntil != 0 && at < d.liveUntil {
		d.liveUntil = at
	}
	d.nextAt = 0
}

// Unit is the complete state of one tracked unit (a static branch, load,
// dependence pair, …) under any registered policy, held by value: the zero
// Unit is an untouched unit in the Monitor state. A Rule advances it one
// event at a time; the parameters and the aggregate Stats live with the
// caller, so a Controller keeps a slice of Units and the serving table keeps
// one Unit per (program, branch) entry.
//
// The window counters are 32-bit because Params bounds each of them
// (Params.Validate keeps those bounds within uint32): monSeen, monExecs and
// monTaken by MonitorPeriod, cyclePos by SamplePeriod, smpExecs and
// smpWrong by SampleLen, and waitLeft by WaitPeriod. Only execs, which
// counts every event the unit ever sees, keeps 64 bits.
//
// Each policy uses a subset of the fields; the others stay zero, so Export
// yields the same BranchState whichever policy produced it.
type Unit struct {
	dep deployment

	// Lifecycle statistics.
	execs uint64

	// est is probweight's EWMA estimate of P(outcome=true).
	est float64

	// Monitor-state window. probweight counts its warmup in monSeen.
	monSeen  uint32
	monExecs uint32
	monTaken uint32

	// Biased-state bookkeeping.
	cyclePos uint32 // eviction-by-sampling cycle position
	smpExecs uint32
	smpWrong uint32
	counter  uint32

	// Unbiased-state bookkeeping.
	waitLeft uint32

	optCount   uint32
	evictions  uint32
	state      State
	direction  bool
	everBiased bool
}

// State returns the unit's classification state.
func (u *Unit) State() State { return u.state }

// Speculating reports whether speculation is currently live for the unit
// and, if so, its direction. Because of optimization latency, this can
// disagree with State around transitions.
func (u *Unit) Speculating() (dir, live bool) { return u.dep.liveDir, u.dep.live() }

// observe is every policy's common prefix of one event: count the
// execution, advance the deployment clock, and score the outcome against
// the speculative code live at this instant.
func (u *Unit) observe(outcome bool, instr uint64) Verdict {
	u.execs++
	u.dep.tick(instr)
	if u.dep.liveUntil == 0 { // not live; kept inlinable
		return NotSpeculated
	}
	if outcome == u.dep.liveDir {
		return Correct
	}
	return Misspec
}

// Controller is the reactive speculation controller. It tracks every static
// branch independently (Section 3.2) and reports, for each dynamic instance,
// whether it was covered by live speculative code and with what outcome.
//
// Controller is not safe for concurrent use; drive it from one goroutine.
type Controller struct {
	params   Params
	branches []Unit

	// OnTransition, if non-nil, is invoked after every classification
	// change. It must not call back into the controller.
	OnTransition func(Transition)

	stats Stats
}

// Stats aggregates a controller's lifetime counters. Every field but Instrs
// follows from each step's verdict and the (from, to) state pair it made,
// which is all count needs.
type Stats struct {
	// Events is the number of dynamic branch instances observed.
	Events uint64
	// Instrs is the number of dynamic instructions observed.
	Instrs uint64
	// Correct and Misspec count speculation outcomes; NotSpec counts
	// instances not covered by live speculation.
	Correct, Misspec, NotSpec uint64
	// Selections counts entries into the biased state; Evictions counts
	// biased→monitor transitions; Retirals counts branches hitting the
	// oscillation limit.
	Selections, Evictions, Retirals uint64
}

// count accounts one step: its verdict, and the transition from → to if the
// step made one. Selections are transitions into Biased, Evictions
// Biased→Monitor, and Retirals transitions into Retired.
func (s *Stats) count(v Verdict, from, to State) {
	s.Events++
	switch v {
	case NotSpeculated:
		s.NotSpec++
	case Correct:
		s.Correct++
	default:
		s.Misspec++
	}
	switch {
	case to == from:
	case to == Biased:
		s.Selections++
	case to == Retired:
		s.Retirals++
	case from == Biased && to == Monitor:
		s.Evictions++
	}
}

// CorrectFrac returns correct speculations as a fraction of all events.
func (s Stats) CorrectFrac() float64 { return frac(s.Correct, s.Events) }

// MisspecFrac returns misspeculations as a fraction of all events.
func (s Stats) MisspecFrac() float64 { return frac(s.Misspec, s.Events) }

// MisspecDistance returns the mean dynamic instructions between
// misspeculations (+Inf if none occurred).
func (s Stats) MisspecDistance() float64 {
	if s.Misspec == 0 {
		return math.Inf(1)
	}
	return float64(s.Instrs) / float64(s.Misspec)
}

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// New returns a controller with the given parameters. It panics with
// Validate's error, which wraps ErrParamRange, when params are out of range.
func New(params Params) *Controller {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Controller{params: params}
}

// Params returns the controller's configuration.
func (c *Controller) Params() Params { return c.params }

// unitAt returns unit id of *units, growing the slice to hold it.
func unitAt(units *[]Unit, id trace.BranchID) *Unit {
	if int(id) >= len(*units) {
		grown := make([]Unit, int(id)+1+int(id)/2)
		copy(grown, *units)
		*units = grown
	}
	return &(*units)[id]
}

// OnBranch observes one dynamic branch instance. instr is the global dynamic
// instruction count at the instance (monotonically non-decreasing across
// calls). The returned verdict reflects the speculative code live at this
// instant, which — because of optimization latency — may lag the branch's
// classification state.
func (c *Controller) OnBranch(id trace.BranchID, taken bool, instr uint64) Verdict {
	u := unitAt(&c.branches, id)
	from := u.state
	v := u.stepReactive(&c.params, taken, instr)
	c.stats.count(v, from, u.state)
	// A step makes at most one transition, and every transition changes
	// the state, as its last effect on the fields a Transition reports.
	if c.OnTransition != nil && u.state != from {
		c.OnTransition(Transition{Branch: id, From: from, To: u.state, Instr: instr, Exec: u.execs, Counter: u.counter})
	}
	return v
}

// AddInstrs accounts dynamic instructions (the gaps between branch events).
func (c *Controller) AddInstrs(n uint64) { c.stats.Instrs += n }

// stepReactive advances the unit by one event under the paper's FSM
// (Figure 4b). It is the only copy of that logic: Controller.OnBranch and
// Rule.Step both run it. The per-event work of each state is written out
// here so a step costs one call; the rare window-end classification and
// the sampling and eviction paths are calls.
func (u *Unit) stepReactive(p *Params, taken bool, instr uint64) Verdict {
	v := u.observe(taken, instr)
	switch u.state {
	case Monitor:
		u.monSeen++
		rate := p.MonitorSampleRate
		if rate < 2 || u.monSeen%rate == 0 {
			u.monExecs++
			if taken {
				u.monTaken++
			}
		}
		if uint64(u.monSeen) >= p.MonitorPeriod {
			u.classify(p, instr)
		}
	case Biased:
		// Only count outcomes once the speculative code is actually live
		// and matches this classification (Section 3.1: counting starts
		// after the optimization latency has elapsed).
		if p.NoEviction || u.dep.liveUntil == 0 || u.dep.liveDir != u.direction {
			break
		}
		if p.EvictBySampling {
			u.onBiasedSampling(p, taken, instr)
			break
		}
		if taken != u.direction {
			next := u.counter + p.MisspecStep
			if next > p.EvictThreshold {
				next = p.EvictThreshold
			}
			u.counter = next
		} else if u.counter >= p.CorrectStep {
			u.counter -= p.CorrectStep
		} else {
			u.counter = 0
		}
		if u.counter >= p.EvictThreshold {
			u.evict(p, instr)
		}
	case Unbiased:
		if p.NoRevisit {
			break
		}
		if u.waitLeft > 0 {
			u.waitLeft--
		}
		if u.waitLeft == 0 {
			u.monSeen, u.monExecs, u.monTaken = 0, 0, 0
			u.state = Monitor
		}
	case Retired:
		// Terminal; nothing to update.
	}
	return v
}

// classify ends a complete monitor window: select, retire, or mark the
// unit unbiased. The window may hold up to MaxUint32 executions, so the
// majority test runs in 64 bits.
func (u *Unit) classify(p *Params, instr uint64) {
	taken, execs := uint64(u.monTaken), uint64(u.monExecs)
	u.monSeen, u.monExecs, u.monTaken = 0, 0, 0
	if execs == 0 {
		u.state = Unbiased
		u.waitLeft = uint32(p.WaitPeriod)
		return
	}
	majTaken := taken*2 >= execs
	maj := taken
	if !majTaken {
		maj = execs - taken
	}
	if float64(maj) >= p.SelectThreshold*float64(execs) {
		if u.optCount >= p.MaxOptimizations {
			// The oscillation limit: conservatively never
			// speculate on this branch again.
			u.state = Retired
			return
		}
		u.optCount++
		u.direction = majTaken
		u.counter = 0
		u.cyclePos = 0
		u.smpExecs, u.smpWrong = 0, 0
		u.everBiased = true
		u.dep.deploy(majTaken, instr+p.OptLatency)
		u.state = Biased
		return
	}
	u.state = Unbiased
	u.waitLeft = uint32(p.WaitPeriod)
}

func (u *Unit) onBiasedSampling(p *Params, taken bool, instr uint64) {
	if uint64(u.cyclePos) < p.SampleLen {
		u.smpExecs++
		if taken != u.direction {
			u.smpWrong++
		}
	}
	u.cyclePos++
	if uint64(u.cyclePos) == p.SampleLen {
		// Sample complete: evaluate.
		if u.smpExecs > 0 {
			correct := float64(u.smpExecs-u.smpWrong) / float64(u.smpExecs)
			if correct < p.EvictBias {
				u.evict(p, instr)
				return
			}
		}
		u.smpExecs, u.smpWrong = 0, 0
	}
	if uint64(u.cyclePos) >= p.SamplePeriod {
		u.cyclePos = 0
	}
}

func (u *Unit) evict(p *Params, instr uint64) {
	u.evictions++
	// The stale speculative code remains deployed until the repaired
	// fragment is ready; its outcomes keep being counted.
	u.dep.undeploy(instr + p.OptLatency)
	u.monSeen, u.monExecs, u.monTaken = 0, 0, 0
	u.state = Monitor
}

// Stats returns the aggregate counters so far.
func (c *Controller) Stats() Stats { return c.stats }

// BranchState returns the classification state of a branch (Monitor for a
// branch never seen).
func (c *Controller) BranchState(id trace.BranchID) State {
	if int(id) >= len(c.branches) {
		return Monitor
	}
	return c.branches[id].state
}

// Speculating reports whether speculation is currently live for the branch
// and, if so, its direction. Note that, because of optimization latency,
// this can disagree with BranchState around transitions.
func (c *Controller) Speculating(id trace.BranchID) (dir, live bool) {
	if int(id) >= len(c.branches) {
		return false, false
	}
	return c.branches[id].Speculating()
}

// StaticCounts summarizes per-branch lifecycle statistics: how many static
// branches were touched, how many ever entered the biased state, how many
// were ever evicted, and how many were retired by the oscillation limit
// (the Table 3 static columns).
func (c *Controller) StaticCounts() (touched, everBiased, everEvicted, retired int) {
	for i := range c.branches {
		u := &c.branches[i]
		if u.execs == 0 {
			continue
		}
		touched++
		if u.everBiased {
			everBiased++
		}
		if u.evictions > 0 {
			everEvicted++
		}
		if u.state == Retired {
			retired++
		}
	}
	return touched, everBiased, everEvicted, retired
}

// Evictions returns how many times the branch has been evicted.
func (c *Controller) Evictions(id trace.BranchID) uint32 {
	if int(id) >= len(c.branches) {
		return 0
	}
	return c.branches[id].evictions
}

// Optimizations returns how many times the branch entered the biased state.
func (c *Controller) Optimizations(id trace.BranchID) uint32 {
	if int(id) >= len(c.branches) {
		return 0
	}
	return c.branches[id].optCount
}
