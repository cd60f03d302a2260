// Package workload synthesizes SPEC2000int-like branch-event streams.
//
// The paper's functional experiments run the twelve SPEC2000 integer
// benchmarks (9–45 billion instructions each) under a functional simulator
// and observe every dynamic conditional branch. Those binaries and inputs are
// not available here, so this package substitutes calibrated synthetic
// workloads: for each benchmark it builds a static-branch population whose
// size, bias distribution, execution-frequency distribution, time-varying
// behavior classes, and input dependence are matched to the statistics the
// paper publishes (Tables 1 and 3, Figures 2, 3, 6 and 9). The controllers
// under study observe only (branch, outcome, instruction-gap) events, so any
// stream with the same population statistics exercises the same control-policy
// behavior. See DESIGN.md for the substitution argument.
package workload

import (
	"fmt"
	"math"

	"reactivespec/internal/behavior"
	"reactivespec/internal/trace"
)

// InputID selects which input a workload models, mirroring Table 1's
// profile/evaluation input pairs.
type InputID int

const (
	// InputEval is the evaluation input (Table 1, third column).
	InputEval InputID = iota
	// InputProfile is the differing profiling input (Table 1, second column).
	InputProfile
)

// InputVariant returns the k-th alternative profiling input (k ≥ 1;
// InputVariant(1) == InputProfile). Each variant flips and omits a different
// subset of the input-dependent branches, modeling distinct data sets for the
// profile-averaging study of Section 2.2.
func InputVariant(k int) InputID {
	if k < 1 {
		k = 1
	}
	return InputID(k)
}

// String returns the input's name.
func (in InputID) String() string {
	switch {
	case in == InputEval:
		return "eval"
	case in == InputProfile:
		return "profile"
	case in > InputProfile:
		return fmt.Sprintf("profile-variant-%d", int(in))
	default:
		return fmt.Sprintf("InputID(%d)", int(in))
	}
}

// BranchSpec describes one static conditional branch of a workload.
type BranchSpec struct {
	// Weight is the branch's relative dynamic execution frequency.
	// A zero weight means the branch is never exercised by this input.
	Weight float64
	// Model produces the branch's outcome sequence.
	Model behavior.Model
	// Class labels the behavior class the branch was planted as
	// (for introspection, tests, and figure drivers).
	Class BranchClass
	// Group is the correlated-flip group index (−1 if none); members of a
	// group change their behavior together (Figure 9).
	Group int
}

// BranchClass labels the behavior classes of Section 2.
type BranchClass uint8

const (
	// ClassBiased is a stably highly-biased branch.
	ClassBiased BranchClass = iota
	// ClassUnbiased is a stably unbiased (or weakly biased) branch.
	ClassUnbiased
	// ClassCold is a touched branch with too few executions to classify.
	ClassCold
	// ClassReversal starts biased and completely reverses direction.
	ClassReversal
	// ClassSoftening starts biased and softens toward an unbiased mix.
	ClassSoftening
	// ClassInduction flips as a pure function of an induction variable.
	ClassInduction
	// ClassLateOnset starts unbiased and becomes biased later in the run.
	ClassLateOnset
	// ClassTwoPhase has two long, opposite, highly-biased phases; its
	// whole-run bias is low but a reactive controller can exploit each
	// phase (the gzip/mcf cases where the model beats self-training).
	ClassTwoPhase
	// ClassOscillator flips between biased directions many times.
	ClassOscillator
	// ClassBursty is biased with occasional misspeculation bursts.
	ClassBursty
	// ClassCorrelated belongs to a correlated-flip group (Figure 9).
	ClassCorrelated
)

var classNames = [...]string{
	ClassBiased:     "biased",
	ClassUnbiased:   "unbiased",
	ClassCold:       "cold",
	ClassReversal:   "reversal",
	ClassSoftening:  "softening",
	ClassInduction:  "induction",
	ClassLateOnset:  "late-onset",
	ClassTwoPhase:   "two-phase",
	ClassOscillator: "oscillator",
	ClassBursty:     "bursty",
	ClassCorrelated: "correlated",
}

// String returns the class name.
func (c BranchClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("BranchClass(%d)", uint8(c))
}

// Changed reports whether the class is one whose behavior changes mid-run.
func (c BranchClass) Changed() bool {
	switch c {
	case ClassReversal, ClassSoftening, ClassInduction, ClassLateOnset,
		ClassTwoPhase, ClassOscillator, ClassCorrelated:
		return true
	}
	return false
}

// Spec is a fully-instantiated synthetic workload: a static branch population
// plus the run length, ready to be replayed by a Generator.
type Spec struct {
	// Name is the benchmark name (e.g. "gcc").
	Name string
	// Input is the input this spec models.
	Input InputID
	// Seed drives all the randomness in the generated stream.
	Seed uint64
	// Events is the total number of dynamic branch events in a run.
	Events uint64
	// MeanGap is the mean number of instructions per branch event.
	MeanGap uint32
	// Branches is the static population, indexed by trace.BranchID.
	Branches []BranchSpec
}

// Instructions returns the approximate dynamic instruction count of a run.
func (s *Spec) Instructions() uint64 { return s.Events * uint64(s.MeanGap) }

// rng is a splitmix64 sequence generator.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// aliasTable implements Vose's alias method for O(1) weighted sampling.
type aliasTable struct {
	prob  []float64
	alias []int32
}

func newAliasTable(weights []float64) *aliasTable {
	n := len(weights)
	t := &aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("workload: invalid weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("workload: all weights are zero")
	}
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// pick samples an index given two independent uniform draws.
func (t *aliasTable) pick(u uint64, f float64) int32 {
	i := int32(u % uint64(len(t.prob)))
	if f < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// Generator replays a Spec as a trace.Stream. It is deterministic: two
// generators built from the same Spec produce identical streams, and Reset
// rewinds a generator to replay its stream from the start.
type Generator struct {
	spec    *Spec
	table   *aliasTable
	rnd     rng
	execIdx []uint64
	emitted uint64
	gapMod  uint64
}

// NewGenerator returns a generator positioned at the start of the run.
func NewGenerator(spec *Spec) *Generator {
	weights := make([]float64, len(spec.Branches))
	for i, b := range spec.Branches {
		weights[i] = b.Weight
	}
	g := &Generator{
		spec:    spec,
		table:   newAliasTable(weights),
		execIdx: make([]uint64, len(spec.Branches)),
		gapMod:  uint64(2*spec.MeanGap - 1),
	}
	if spec.MeanGap < 1 {
		g.gapMod = 1
	}
	g.Reset()
	return g
}

// Reset rewinds the generator to the start of the run.
func (g *Generator) Reset() {
	g.rnd = rng{state: g.spec.Seed}
	for i := range g.execIdx {
		g.execIdx[i] = 0
	}
	g.emitted = 0
}

// Next implements trace.Stream.
func (g *Generator) Next() (trace.Event, bool) {
	if g.emitted >= g.spec.Events {
		return trace.Event{}, false
	}
	g.emitted++
	u := g.rnd.next()
	f := g.rnd.float64()
	id := g.table.pick(u, f)
	n := g.execIdx[id]
	g.execIdx[id] = n + 1
	taken := g.spec.Branches[id].Model.Outcome(n)
	gap := uint32(1 + g.rnd.intn(g.gapMod))
	return trace.Event{Branch: trace.BranchID(id), Taken: taken, Gap: gap}, true
}

// NextBatch fills buf with up to len(buf) events and returns how many were
// produced; it is exactly equivalent to repeated Next calls but amortizes
// the per-call overhead for batch consumers (the serving-layer load
// generator ships events to reactived in NextBatch-sized frames).
func (g *Generator) NextBatch(buf []trace.Event) int {
	n := 0
	for n < len(buf) {
		ev, ok := g.Next()
		if !ok {
			break
		}
		buf[n] = ev
		n++
	}
	return n
}

// Emitted returns how many events the generator has produced since the last
// reset.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Executions returns how many times the given branch has executed so far.
func (g *Generator) Executions(id trace.BranchID) uint64 { return g.execIdx[id] }
