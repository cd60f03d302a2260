package core

import "fmt"

// Registered policy names. PolicyReactive is the default everywhere a policy
// name is optional.
const (
	// PolicyReactive is the paper's closed-loop FSM (Section 3): monitor,
	// select, evict, revisit.
	PolicyReactive = "reactive"
	// PolicySelfTrain decides once from initial behavior and never
	// revisits — Figure 2's initial-behavior classifier (Section 2.2),
	// run online.
	PolicySelfTrain = "selftrain"
	// PolicyProbWeight weighs outcomes with an exponential moving average
	// — a probabilistic-dataflow-style estimator (after Di Pierro &
	// Wiklicky) with deploy/undeploy hysteresis thresholds.
	PolicyProbWeight = "probweight"
)

// PolicyNames lists the registered policy names, default first, in policyID
// order.
func PolicyNames() []string {
	return []string{PolicyReactive, PolicySelfTrain, PolicyProbWeight}
}

// ValidPolicy reports whether name is a registered policy ("" counts as the
// default, PolicyReactive).
func ValidPolicy(name string) bool {
	_, err := NewRule(name, Params{})
	return err == nil
}

// policyID selects a Rule's step function.
type policyID uint8

const (
	reactiveID policyID = iota
	selfTrainID
	probWeightID
)

// Rule is a registered speculation-control policy bound to its parameters:
// the single-unit step that every multi-unit caller — Controller and the
// serving table — runs over value-held Unit state. Holding the parameters
// once per Rule rather than once per unit keeps a unit to its own state.
//
// All four speculation kinds are boolean-outcome streams, so a policy sees
// the same shape regardless of kind: one outcome per dynamic event at a
// global instruction count. Every step is deterministic — the same event
// sequence yields the same decisions — because snapshot restore, WAL replay
// and replica failover all rely on bit-exact reproduction.
type Rule struct {
	params Params
	policy policyID
}

// NewRule returns the rule for a registered policy name ("" = reactive). It
// returns an error wrapping ErrParamRange when params fail Validate.
func NewRule(name string, params Params) (Rule, error) {
	if err := params.Validate(); err != nil {
		return Rule{}, err
	}
	r := Rule{params: params}
	switch name {
	case "", PolicyReactive:
		r.policy = reactiveID
	case PolicySelfTrain:
		r.policy = selfTrainID
	case PolicyProbWeight:
		r.policy = probWeightID
	default:
		return Rule{}, fmt.Errorf("core: unknown policy %q (want one of %v)", name, PolicyNames())
	}
	return r, nil
}

// Name returns the rule's registered policy name.
func (r *Rule) Name() string { return PolicyNames()[r.policy] }

// Params returns the rule's parameters.
func (r *Rule) Params() Params { return r.params }

// Step advances u by one event with the given outcome at global instruction
// count instr and returns the verdict. A step makes at most one
// classification transition, so the verdict and u.State() before and after
// are all a caller needs to count the event in its Stats, as Controller
// does.
//
// The reactive policy, the default and the hot one, is tested first and
// stepped directly, so its step is one call below Step; the other policies
// share one out-of-line call.
func (r *Rule) Step(u *Unit, outcome bool, instr uint64) Verdict {
	if r.policy == reactiveID {
		return u.stepReactive(&r.params, outcome, instr)
	}
	return r.stepOther(u, outcome, instr)
}

// stepOther steps the non-reactive policies.
func (r *Rule) stepOther(u *Unit, outcome bool, instr uint64) Verdict {
	if r.policy == selfTrainID {
		return u.stepSelfTrain(&r.params, outcome, instr)
	}
	return u.stepProbWeight(&r.params, outcome, instr)
}
