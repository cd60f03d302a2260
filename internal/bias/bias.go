// Package bias computes branch-bias statistics: per-branch profiles, the
// Pareto-optimal correct/incorrect speculation trade-off of Figure 2, and
// threshold-based biased-set selection (the self-training oracle).
package bias

import (
	"sort"

	"reactivespec/internal/core"
	"reactivespec/internal/trace"
)

// Count holds one branch's dynamic execution profile.
type Count struct {
	Execs uint64
	Taken uint64
}

// NotTaken returns the number of not-taken executions.
func (c Count) NotTaken() uint64 { return c.Execs - c.Taken }

// Majority returns the majority direction and its execution count.
func (c Count) Majority() (taken bool, n uint64) {
	if c.Taken*2 >= c.Execs {
		return true, c.Taken
	}
	return false, c.NotTaken()
}

// Bias returns the fraction of executions in the majority direction
// (0.5–1.0), or 0 for a branch that never executed.
func (c Count) Bias() float64 {
	if c.Execs == 0 {
		return 0
	}
	_, n := c.Majority()
	return float64(n) / float64(c.Execs)
}

// Profile aggregates per-branch counts over a run.
type Profile struct {
	counts []Count
	events uint64
	instrs uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// Observe records one dynamic branch event.
func (p *Profile) Observe(ev trace.Event) {
	id := int(ev.Branch)
	if id >= len(p.counts) {
		grown := make([]Count, id+1+id/2)
		copy(grown, p.counts)
		p.counts = grown
	}
	p.counts[id].Execs++
	if ev.Taken {
		p.counts[id].Taken++
	}
	p.events++
	p.instrs += uint64(ev.Gap)
}

// FromStream drains a stream into a new profile.
func FromStream(s trace.Stream) *Profile {
	p := NewProfile()
	for {
		ev, ok := s.Next()
		if !ok {
			return p
		}
		p.Observe(ev)
	}
}

// Count returns the profile of a branch (zero Count if never seen).
func (p *Profile) Count(id trace.BranchID) Count {
	if int(id) >= len(p.counts) {
		return Count{}
	}
	return p.counts[id]
}

// Events returns the total number of observed events.
func (p *Profile) Events() uint64 { return p.events }

// Instrs returns the total number of observed instructions.
func (p *Profile) Instrs() uint64 { return p.instrs }

// Touched returns the number of static branches with at least one execution.
func (p *Profile) Touched() int {
	n := 0
	for _, c := range p.counts {
		if c.Execs > 0 {
			n++
		}
	}
	return n
}

// Branches returns the IDs of all touched branches in ascending order.
func (p *Profile) Branches() []trace.BranchID {
	ids := make([]trace.BranchID, 0, len(p.counts))
	for i, c := range p.counts {
		if c.Execs > 0 {
			ids = append(ids, trace.BranchID(i))
		}
	}
	return ids
}

// Decision is a static speculation decision for one branch.
type Decision struct {
	Branch trace.BranchID
	// Taken is the assumed (speculated) direction.
	Taken bool
}

// Selection is a set of static speculation decisions, as produced by
// profile-guided selection. It is itself a speculation controller: the
// offline profile-guided mechanism of Section 2.2, speculating on a fixed
// set of branches, each in a fixed direction, from the first instruction
// and never reconsidering. The selection is self-training when it comes
// from the evaluated run itself (Figure 5's self-train line) and
// cross-input profiling when it comes from a different input's run
// (Figure 2's triangle).
type Selection struct {
	directions map[trace.BranchID]bool
}

// Select returns the branches whose bias meets or exceeds threshold
// (e.g. 0.99 for the paper's 99% threshold), each with its majority
// direction. Branches with fewer than minExecs executions are skipped.
func (p *Profile) Select(threshold float64, minExecs uint64) *Selection {
	sel := &Selection{directions: make(map[trace.BranchID]bool)}
	for i, c := range p.counts {
		if c.Execs < minExecs || c.Execs == 0 {
			continue
		}
		if c.Bias() >= threshold {
			dir, _ := c.Majority()
			sel.directions[trace.BranchID(i)] = dir
		}
	}
	return sel
}

// Len returns the number of selected branches.
func (s *Selection) Len() int { return len(s.directions) }

// OnBranch implements the harness Controller contract: a selected branch
// is speculated in its assumed direction, any other is not speculated.
func (s *Selection) OnBranch(id trace.BranchID, taken bool, _ uint64) core.Verdict {
	dir, ok := s.directions[id]
	if !ok {
		return core.NotSpeculated
	}
	if taken == dir {
		return core.Correct
	}
	return core.Misspec
}

// Decisions returns the selection as a sorted slice.
func (s *Selection) Decisions() []Decision {
	ds := make([]Decision, 0, len(s.directions))
	for id, dir := range s.directions {
		ds = append(ds, Decision{Branch: id, Taken: dir})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Branch < ds[j].Branch })
	return ds
}

// Merge returns a profile holding the per-branch sums of the inputs. It
// implements the profile-averaging mitigation sketched (but not shown) in
// Section 2.2: selecting from a merged profile reduces misspeculation on
// input-dependent branches — which no longer look biased — at the cost of
// never speculating on them.
func Merge(profiles ...*Profile) *Profile {
	out := NewProfile()
	maxLen := 0
	for _, p := range profiles {
		if len(p.counts) > maxLen {
			maxLen = len(p.counts)
		}
		out.events += p.events
		out.instrs += p.instrs
	}
	out.counts = make([]Count, maxLen)
	for _, p := range profiles {
		for i, c := range p.counts {
			out.counts[i].Execs += c.Execs
			out.counts[i].Taken += c.Taken
		}
	}
	return out
}

// ParetoPoint is one point of the Figure 2 trade-off curve: the correct and
// incorrect speculation fractions (of all dynamic branches) achieved by
// speculating on every branch at least as biased as Bias.
type ParetoPoint struct {
	Bias      float64
	CorrectF  float64 // correct speculations / dynamic branches
	WrongF    float64 // misspeculations / dynamic branches
	NumStatic int     // static branches speculated on
}

// Pareto computes the Pareto-optimal correct/incorrect trade-off achieved
// with perfect knowledge of future outcomes (self-training): branches sorted
// by descending bias, cumulatively added to the speculated set. The returned
// points are in order of decreasing bias (increasing coverage).
func (p *Profile) Pareto() []ParetoPoint {
	type entry struct {
		bias    float64
		correct uint64
		wrong   uint64
	}
	entries := make([]entry, 0, len(p.counts))
	for _, c := range p.counts {
		if c.Execs == 0 {
			continue
		}
		_, maj := c.Majority()
		entries = append(entries, entry{bias: c.Bias(), correct: maj, wrong: c.Execs - maj})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].bias > entries[j].bias })
	points := make([]ParetoPoint, 0, len(entries))
	var correct, wrong uint64
	total := float64(p.events)
	for i, e := range entries {
		correct += e.correct
		wrong += e.wrong
		points = append(points, ParetoPoint{
			Bias:      e.bias,
			CorrectF:  float64(correct) / total,
			WrongF:    float64(wrong) / total,
			NumStatic: i + 1,
		})
	}
	return points
}

// AtThreshold returns the Pareto point achieved by speculating on all
// branches with bias ≥ threshold (the paper's marked 99% point).
func (p *Profile) AtThreshold(threshold float64) ParetoPoint {
	var correct, wrong uint64
	n := 0
	for _, c := range p.counts {
		if c.Execs == 0 || c.Bias() < threshold {
			continue
		}
		_, maj := c.Majority()
		correct += maj
		wrong += c.Execs - maj
		n++
	}
	total := float64(p.events)
	if total == 0 {
		return ParetoPoint{Bias: threshold}
	}
	return ParetoPoint{
		Bias:      threshold,
		CorrectF:  float64(correct) / total,
		WrongF:    float64(wrong) / total,
		NumStatic: n,
	}
}
