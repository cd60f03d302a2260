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
// unit, independent of its classification state: selections become live
// OptLatency instructions later, and evicted code stays live ("lame duck")
// for OptLatency instructions until the repaired code is deployed. The
// speculated values are outcomes as Unit.spec holds them: 0 or 1 for a
// branch, the assumed constant for a load.
type deployment struct {
	liveUntil uint64 // 0 = not live; math.MaxUint64 = live indefinitely
	nextAt    uint64 // 0 = nothing pending
	liveSpec  uint32
	nextSpec  uint32
}

func (d *deployment) tick(instr uint64) {
	if d.liveUntil != 0 && instr >= d.liveUntil {
		d.liveUntil = 0
	}
	if d.nextAt != 0 && instr >= d.nextAt {
		d.liveSpec = d.nextSpec
		d.liveUntil = math.MaxUint64
		d.nextAt = 0
	}
}

func (d *deployment) live() bool { return d.liveUntil != 0 }

// deploy schedules speculation on spec to become live at instant at.
func (d *deployment) deploy(spec uint32, at uint64) {
	if at == 0 {
		at = 1
	}
	d.nextSpec = spec
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
// one Unit per (program, branch) entry. A ValueController keeps load-value
// units, which hold a load's value where a branch unit holds 0 or 1.
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

	optCount  uint32
	evictions uint32
	// spec is the outcome the unit was last selected on: 1 taken or 0 not
	// taken for a branch, the constant for a load.
	spec uint32

	state      State
	everBiased bool
}

// State returns the unit's classification state.
func (u *Unit) State() State { return u.state }

// Speculating reports whether speculation is currently live for the unit
// and, if so, its direction. Because of optimization latency, this can
// disagree with State around transitions.
func (u *Unit) Speculating() (dir, live bool) { return u.dep.liveSpec != 0, u.dep.live() }

// b2u is a branch outcome as a speculated value: 1 taken, 0 not taken.
func b2u(taken bool) uint32 {
	if taken {
		return 1
	}
	return 0
}

// observe is every policy's common prefix of one event: count the
// execution, advance the deployment clock, and score the outcome against
// the speculative code live at this instant.
func (u *Unit) observe(out uint32, instr uint64) Verdict {
	u.execs++
	u.dep.tick(instr)
	if u.dep.liveUntil == 0 { // not live; kept inlinable
		return NotSpeculated
	}
	if out == u.dep.liveSpec {
		return Correct
	}
	return Misspec
}

// Controller runs one registered policy over every unit it tracks: each
// static branch (or load, dependence pair, …) is its own Unit, advanced
// independently by the controller's Rule (Section 3.2), and each dynamic
// instance reports whether it was covered by live speculative code and with
// what outcome. New builds the paper's reactive controller; NewPolicySet
// builds one for any registered policy.
//
// Controller is not safe for concurrent use; drive it from one goroutine.
type Controller struct {
	rule  Rule
	units []Unit

	// OnTransition, if non-nil, is invoked after every classification
	// change. It must not call back into the controller.
	OnTransition func(Transition)

	stats Stats
}

// PolicySet is the former name of a Controller built for a named policy,
// kept only because the perfbench module still names it. New code names
// Controller.
type PolicySet = Controller

// Stats aggregates a controller's lifetime counters. Every field but Instrs
// follows from each step's verdict and the (from, to) state pair it made:
// Count takes the verdict and ClassifyTransition the pair.
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

// Count accounts one event by its verdict: Events and the verdict's own
// counter. It is the one verdict counter; every loop that scores a stream
// calls it.
func (s *Stats) Count(v Verdict) {
	s.Events++
	switch v {
	case NotSpeculated:
		s.NotSpec++
	case Correct:
		s.Correct++
	default:
		s.Misspec++
	}
}

// TransitionClass is what a classification transition counts as in Stats.
type TransitionClass uint8

const (
	// Uncounted is a step that made no transition, or one Stats does
	// not count (monitor↔unbiased).
	Uncounted TransitionClass = iota
	// Selection is any transition into Biased.
	Selection
	// Eviction is Biased→Monitor.
	Eviction
	// Retiral is any transition into Retired.
	Retiral
)

// ClassifyTransition returns what the step from → to counts as. It is the
// one transition classifier: Stats and the serving table's per-entry
// counters both count through it.
func ClassifyTransition(from, to State) TransitionClass {
	switch {
	case to == from:
		return Uncounted
	case to == Biased:
		return Selection
	case to == Retired:
		return Retiral
	case from == Biased && to == Monitor:
		return Eviction
	}
	return Uncounted
}

// countMove accounts a step's transition from → to, if it made one.
func (s *Stats) countMove(from, to State) {
	switch ClassifyTransition(from, to) {
	case Selection:
		s.Selections++
	case Eviction:
		s.Evictions++
	case Retiral:
		s.Retirals++
	}
}

// CorrectFrac returns correct speculations as a fraction of all events
// (the y axis of Figures 2 and 5).
func (s Stats) CorrectFrac() float64 { return frac(s.Correct, s.Events) }

// MisspecFrac returns misspeculations as a fraction of all events (the x
// axis of Figures 2 and 5).
func (s Stats) MisspecFrac() float64 { return frac(s.Misspec, s.Events) }

// MisspecDistance returns the mean dynamic instructions between
// misspeculations (+Inf if none occurred) — Table 3's final column.
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

// New returns a reactive controller with the given parameters. It panics
// with Validate's error, which wraps ErrParamRange, when params are out of
// range.
func New(params Params) *Controller {
	c, err := NewPolicySet(PolicyReactive, params)
	if err != nil {
		panic(err)
	}
	return c
}

// NewPolicySet returns a controller for the registered policy name ("" =
// reactive). Like NewRule it rejects out-of-range params.
func NewPolicySet(name string, params Params) (*Controller, error) {
	r, err := NewRule(name, params)
	if err != nil {
		return nil, err
	}
	return &Controller{rule: r}, nil
}

// Name returns the controller's registered policy name.
func (c *Controller) Name() string { return c.rule.Name() }

// Params returns the controller's configuration.
func (c *Controller) Params() Params { return c.rule.params }

// OnBranch observes one dynamic instance of unit id with the given outcome.
// instr is the global dynamic instruction count at the instance
// (monotonically non-decreasing across calls). The returned verdict reflects
// the speculative code live at this instant, which — because of
// optimization latency — may lag the unit's classification state.
func (c *Controller) OnBranch(id trace.BranchID, outcome bool, instr uint64) Verdict {
	_, v := c.step(id, outcome, instr)
	return v
}

// OnEvent is OnBranch returning the full decision tuple — the verdict and
// the unit's state and speculation after the step — which is what a
// serving-table entry encodes.
func (c *Controller) OnEvent(id trace.BranchID, outcome bool, instr uint64) (Verdict, State, bool, bool) {
	u, v := c.step(id, outcome, instr)
	dir, live := u.Speculating()
	return v, u.state, dir, live
}

// step advances unit id by one event and counts it.
func (c *Controller) step(id trace.BranchID, outcome bool, instr uint64) (*Unit, Verdict) {
	u := c.unit(id)
	from := u.state
	v := c.rule.Step(u, outcome, instr)
	c.stats.Count(v)
	if u.state != from {
		c.transition(id, from, instr)
	}
	return u, v
}

// unit returns unit id, growing the table to hold it.
func (c *Controller) unit(id trace.BranchID) *Unit {
	if int(id) >= len(c.units) {
		grown := make([]Unit, int(id)+1+int(id)/2)
		copy(grown, c.units)
		c.units = grown
	}
	return &c.units[id]
}

// transition counts the step that moved unit id from state from and
// reports it to OnTransition. A step makes at most one transition, and
// every transition changes the state, as its last effect on the fields a
// Transition reports.
func (c *Controller) transition(id trace.BranchID, from State, instr uint64) {
	u := &c.units[id]
	c.stats.countMove(from, u.state)
	if c.OnTransition != nil {
		c.OnTransition(Transition{Branch: id, From: from, To: u.state, Instr: instr, Exec: u.execs, Counter: u.counter})
	}
}

// AddInstrs accounts dynamic instructions (the gaps between branch events).
func (c *Controller) AddInstrs(n uint64) { c.stats.Instrs += n }

// stepReactive advances a branch unit by one event under the paper's FSM
// (Figure 4b); Rule.Step runs it for every reactive caller.
func (u *Unit) stepReactive(p *Params, taken bool, instr uint64) Verdict {
	return u.step(p, b2u(taken), instr, nil)
}

// step advances the unit by one event with outcome out under the paper's
// FSM (Figure 4b). It is the only copy of that logic: a branch unit (out 0
// or 1, w nil) and a load-value unit (out the loaded value, w its window)
// share every state but the monitor window, and even that ends in one
// settle. The per-event work of each state is written out here so a
// branch step costs one call; the rare window-end classification, the
// value window and the sampling and eviction paths are calls.
func (u *Unit) step(p *Params, out uint32, instr uint64, w *valueWindow) Verdict {
	v := u.observe(out, instr)
	switch u.state {
	case Monitor:
		if w != nil {
			u.monitorValue(p, w, out, instr)
			break
		}
		u.monSeen++
		rate := p.MonitorSampleRate
		if rate < 2 || u.monSeen%rate == 0 {
			u.monExecs++
			u.monTaken += out
		}
		if uint64(u.monSeen) >= p.MonitorPeriod {
			u.classify(p, instr)
		}
	case Biased:
		// Only count outcomes once the speculative code is actually live
		// and matches this classification (Section 3.1: counting starts
		// after the optimization latency has elapsed).
		if p.NoEviction || u.dep.liveUntil == 0 || u.dep.liveSpec != u.spec {
			break
		}
		if p.EvictBySampling {
			u.onBiasedSampling(p, out, instr)
			break
		}
		if out != u.spec {
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

// classify ends a branch unit's monitor window: settle on its majority
// direction. The window may hold up to MaxUint32 executions, so the
// majority test runs in 64 bits; a tie goes to taken.
func (u *Unit) classify(p *Params, instr uint64) {
	taken, execs := uint64(u.monTaken), uint64(u.monExecs)
	u.monSeen, u.monExecs, u.monTaken = 0, 0, 0
	maj, dir := taken, uint32(1)
	if taken*2 < execs {
		maj, dir = execs-taken, 0
	}
	u.settle(p, instr, dir, maj, execs)
}

// settle ends a monitor window of n observations whose modal outcome spec
// occurred hits times: select spec when hits clears SelectThreshold (or
// retire the unit at the oscillation limit), otherwise mark the unit
// unbiased. An empty window (every execution unsampled) is unbiased.
func (u *Unit) settle(p *Params, instr uint64, spec uint32, hits, n uint64) {
	if n > 0 && float64(hits) >= p.SelectThreshold*float64(n) {
		if u.optCount >= p.MaxOptimizations {
			// The oscillation limit: conservatively never
			// speculate on this unit again.
			u.state = Retired
			return
		}
		u.optCount++
		u.spec = spec
		u.counter = 0
		u.cyclePos = 0
		u.smpExecs, u.smpWrong = 0, 0
		u.everBiased = true
		u.dep.deploy(spec, instr+p.OptLatency)
		u.state = Biased
		return
	}
	u.state = Unbiased
	u.waitLeft = uint32(p.WaitPeriod)
}

func (u *Unit) onBiasedSampling(p *Params, out uint32, instr uint64) {
	if uint64(u.cyclePos) < p.SampleLen {
		u.smpExecs++
		if out != u.spec {
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

// UnitState returns the unit's classification state (Monitor for a unit
// never seen).
func (c *Controller) UnitState(id trace.BranchID) State {
	if int(id) >= len(c.units) {
		return Monitor
	}
	return c.units[id].state
}

// Speculating reports whether speculation is currently live for the unit
// and, if so, its direction. Note that, because of optimization latency,
// this can disagree with UnitState around transitions.
func (c *Controller) Speculating(id trace.BranchID) (dir, live bool) {
	if int(id) >= len(c.units) {
		return false, false
	}
	return c.units[id].Speculating()
}

// StaticCounts summarizes per-unit lifecycle statistics: how many static
// units were touched, how many ever entered the biased state, how many
// were ever evicted, and how many were retired by the oscillation limit
// (the Table 3 static columns).
func (c *Controller) StaticCounts() (touched, everBiased, everEvicted, retired int) {
	for i := range c.units {
		u := &c.units[i]
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

// Evictions returns how many times the unit has been evicted.
func (c *Controller) Evictions(id trace.BranchID) uint32 {
	if int(id) >= len(c.units) {
		return 0
	}
	return c.units[id].evictions
}

// Optimizations returns how many times the unit was selected under the
// reactive or probweight policy — the count MaxOptimizations bounds.
// Selftrain decides once and never bumps it, so it stays 0 there (the
// selftrain snapshot pin fixes OptCount at 0).
func (c *Controller) Optimizations(id trace.BranchID) uint32 {
	if int(id) >= len(c.units) {
		return 0
	}
	return c.units[id].optCount
}
