package core

import "reactivespec/internal/trace"

// PolicySet drives one Unit per tracked unit under a registered policy,
// presenting the same multi-unit surface as Controller so any registered
// policy can ride the harness, the experiments, and reactiveload's
// verification mirror. For the reactive policy a PolicySet behaves
// identically to one multi-branch Controller: both run the same step over
// the same per-unit state.
//
// PolicySet is not safe for concurrent use.
type PolicySet struct {
	rule  Rule
	units []Unit
	stats Stats
}

// NewPolicySet builds a per-unit policy set for the registered policy name
// ("" = reactive). Like NewRule it rejects out-of-range params.
func NewPolicySet(name string, params Params) (*PolicySet, error) {
	r, err := NewRule(name, params)
	if err != nil {
		return nil, err
	}
	return &PolicySet{rule: r}, nil
}

// Name returns the set's registered policy name ("" normalizes to reactive).
func (s *PolicySet) Name() string { return s.rule.Name() }

// OnBranch observes one dynamic event for the unit and returns the verdict —
// the harness.Controller surface, serving every kind's boolean outcome.
func (s *PolicySet) OnBranch(id trace.BranchID, outcome bool, instr uint64) Verdict {
	_, v := s.step(id, outcome, instr)
	return v
}

// OnEvent observes one dynamic event and returns the full decision tuple,
// mirroring what a serving-table entry encodes.
func (s *PolicySet) OnEvent(id trace.BranchID, outcome bool, instr uint64) (Verdict, State, bool, bool) {
	u, v := s.step(id, outcome, instr)
	dir, live := u.Speculating()
	return v, u.state, dir, live
}

// step advances the unit by one event and counts it in the set's Stats.
func (s *PolicySet) step(id trace.BranchID, outcome bool, instr uint64) (*Unit, Verdict) {
	u := unitAt(&s.units, id)
	from := u.state
	v := s.rule.Step(u, outcome, instr)
	s.stats.count(v, from, u.state)
	return u, v
}

// AddInstrs accounts dynamic instructions at the set level.
func (s *PolicySet) AddInstrs(n uint64) { s.stats.Instrs += n }

// UnitState returns the unit's classification state (Monitor when unseen).
func (s *PolicySet) UnitState(id trace.BranchID) State {
	if int(id) >= len(s.units) {
		return Monitor
	}
	return s.units[id].state
}

// Speculating reports whether speculation is live for the unit and its
// direction.
func (s *PolicySet) Speculating(id trace.BranchID) (dir, live bool) {
	if int(id) >= len(s.units) {
		return false, false
	}
	return s.units[id].Speculating()
}

// Stats returns the set's counters over every unit.
func (s *PolicySet) Stats() Stats { return s.stats }
