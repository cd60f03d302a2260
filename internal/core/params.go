// Package core implements the paper's primary contribution: the reactive
// speculation-control model of Section 3 (Figure 4b).
//
// Each static behavior (a conditional branch in the paper's study) is tracked
// by a three-state classifier:
//
//	monitor  — observe a window of executions and measure bias;
//	biased   — speculate in the majority direction; a saturating counter
//	           (+50 on misspeculation, −1 on correct speculation) provides
//	           hysteresis, and reaching the eviction threshold sends the
//	           branch back to monitor ("eviction");
//	unbiased — do not speculate; after a wait period, return to monitor
//	           ("revisit").
//
// The two reactive arcs — eviction and revisit — are the paper's key claim:
// their presence is fundamental, nearly everything else is a tunable detail.
// Transitions into and out of the biased state correspond to code
// (re-)optimization and therefore take effect only after a configurable
// optimization latency, modeled in instructions; the controller keeps
// counting the speculation outcomes of evicted-but-not-yet-repaired code
// ("lame duck" deployments), exactly as Section 3.1 describes.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Params configures the reactive model. The zero value is not meaningful;
// start from DefaultParams.
type Params struct {
	// MonitorPeriod is the number of executions observed in the monitor
	// state before a classification decision (Table 2: 10,000).
	MonitorPeriod uint64
	// SelectThreshold is the observed bias required to enter the biased
	// state (Table 2: 99.5%).
	SelectThreshold float64
	// EvictThreshold is the saturating-counter ceiling that triggers
	// eviction from the biased state (Table 2: 10,000).
	EvictThreshold uint32
	// MisspecStep is the counter increment on a misspeculation (50).
	MisspecStep uint32
	// CorrectStep is the counter decrement on a correct speculation (1).
	CorrectStep uint32
	// WaitPeriod is the number of executions spent in the unbiased state
	// before revisiting the monitor state (Table 2: 1,000,000).
	WaitPeriod uint64
	// MaxOptimizations caps how many times a branch may enter the biased
	// state; per Table 2 the model "will not optimize a sixth time" (5).
	MaxOptimizations uint32
	// OptLatency is the (re-)optimization latency in dynamic instructions
	// (Table 2: 1,000,000). Entering the biased state deploys speculation
	// OptLatency instructions later; eviction leaves the stale speculative
	// code live for OptLatency further instructions.
	OptLatency uint64

	// NoEviction removes the biased→monitor arc (open-loop speculation;
	// the Figure 5 "x" configuration).
	NoEviction bool
	// NoRevisit removes the unbiased→monitor arc (the Figure 5 "+"
	// configuration).
	NoRevisit bool

	// EvictBySampling replaces the continuous saturating counter with
	// periodic bias re-sampling: every SamplePeriod executions, the bias
	// over SampleLen executions is measured and the branch evicted if it
	// falls below EvictBias (Section 3.3, "evicting by sampling").
	EvictBySampling bool
	// SampleLen is the sampled executions per eviction-sampling cycle.
	SampleLen uint64
	// SamplePeriod is the eviction-sampling cycle length (a 10% duty
	// cycle in the paper: 1,000 of every 10,000 executions).
	SamplePeriod uint64
	// EvictBias is the sampled-bias floor below which a sampled branch is
	// evicted (98%).
	EvictBias float64

	// MonitorSampleRate, when ≥ 2, observes only one in every
	// MonitorSampleRate executions during the monitor state
	// (Section 3.3, "sampling in monitor state": 1-in-8).
	MonitorSampleRate uint32
}

// ErrParamRange reports a Params count too large for the 32-bit per-unit
// counter it bounds. NewRule, NewPolicySet and the serving table return it;
// New panics with it.
var ErrParamRange = errors.New("core: parameter out of range")

// Validate returns an error wrapping ErrParamRange when a count the unit
// keeps in a 32-bit field could exceed it: MonitorPeriod bounds the monitor
// window, WaitPeriod the revisit wait, and SampleLen and SamplePeriod the
// eviction-sampling cycle. Sampling eviction also needs SampleLen ≤
// SamplePeriod; a longer sample never completes, and its counts would grow
// for the whole biased episode.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    uint64
	}{
		{"MonitorPeriod", p.MonitorPeriod},
		{"WaitPeriod", p.WaitPeriod},
		{"SampleLen", p.SampleLen},
		{"SamplePeriod", p.SamplePeriod},
	} {
		if f.v > math.MaxUint32 {
			return fmt.Errorf("%w: %s = %d exceeds %d", ErrParamRange, f.name, f.v, uint64(math.MaxUint32))
		}
	}
	if p.EvictBySampling && p.SampleLen > p.SamplePeriod {
		return fmt.Errorf("%w: SampleLen = %d exceeds SamplePeriod = %d", ErrParamRange, p.SampleLen, p.SamplePeriod)
	}
	return nil
}

// DefaultParams returns the paper's Table 2 parameters.
func DefaultParams() Params {
	return Params{
		MonitorPeriod:    10_000,
		SelectThreshold:  0.995,
		EvictThreshold:   10_000,
		MisspecStep:      50,
		CorrectStep:      1,
		WaitPeriod:       1_000_000,
		MaxOptimizations: 5,
		OptLatency:       1_000_000,
		SampleLen:        1_000,
		SamplePeriod:     10_000,
		EvictBias:        0.98,
	}
}

// Scaled returns a copy with every count-based parameter divided by k,
// preserving all the model's rate semantics (selection and eviction bias
// thresholds, counter step ratio) while shifting the absolute counts to
// match runs k× shorter than the paper's. The experiment harness uses k=10
// together with workloads at 1/250 of the paper's instruction counts; the
// paper itself uses a 1,000-execution monitor period for its short timing
// runs (Section 4.2).
func (p Params) Scaled(k uint64) Params {
	if k <= 1 {
		return p
	}
	div := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		s := v / k
		if s == 0 {
			s = 1
		}
		return s
	}
	p.MonitorPeriod = div(p.MonitorPeriod)
	p.EvictThreshold = uint32(div(uint64(p.EvictThreshold)))
	p.WaitPeriod = div(p.WaitPeriod)
	p.OptLatency = div(p.OptLatency)
	p.SampleLen = div(p.SampleLen)
	p.SamplePeriod = div(p.SamplePeriod)
	return p
}

// WithNoEviction returns a copy without the biased→monitor arc.
func (p Params) WithNoEviction() Params { p.NoEviction = true; return p }

// WithNoRevisit returns a copy without the unbiased→monitor arc.
func (p Params) WithNoRevisit() Params { p.NoRevisit = true; return p }

// WithSamplingEviction returns a copy that evicts by periodic bias sampling.
func (p Params) WithSamplingEviction() Params { p.EvictBySampling = true; return p }

// WithMonitorSampling returns a copy that samples one in n executions while
// monitoring.
func (p Params) WithMonitorSampling(n uint32) Params { p.MonitorSampleRate = n; return p }

// WithWaitPeriod returns a copy with the given revisit wait period.
func (p Params) WithWaitPeriod(w uint64) Params { p.WaitPeriod = w; return p }

// WithEvictThreshold returns a copy with the given eviction threshold.
func (p Params) WithEvictThreshold(t uint32) Params { p.EvictThreshold = t; return p }

// WithOptLatency returns a copy with the given optimization latency.
func (p Params) WithOptLatency(l uint64) Params { p.OptLatency = l; return p }
