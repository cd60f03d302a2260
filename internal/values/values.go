// Package values extends the reactive control model from conditional
// branches to load-value invariance — the second program behavior the paper
// reports its results generalize to (Section 2: "loads that produce invariant
// values"), and the behavior behind Figure 1's x.d == 32 approximation.
//
// The controller is core.ValueController, which steps each static load
// through the same Figure 4b code as a branch: only the monitor window
// differs, tracking a window's modal value, and the biased state speculates
// that the load keeps producing it (letting the optimizer constant-fold it,
// as in Figure 1). This package holds the value side of the study: the
// value Models, the synthetic Suite and RunStudy.
package values

// Model produces a load's value sequence as a pure function of its execution
// index, mirroring behavior.Model for branches.
type Model interface {
	// Value returns the value produced by the n-th execution (0-based).
	Value(n uint64) uint32
}

// Constant always produces V.
type Constant uint32

// Value implements Model.
func (c Constant) Value(uint64) uint32 { return uint32(c) }

// PhaseConstant produces V1 for the first SwitchAt executions and V2 after —
// the value analog of a branch reversal (e.g. a configuration reload).
type PhaseConstant struct {
	V1, V2   uint32
	SwitchAt uint64
}

// Value implements Model.
func (p PhaseConstant) Value(n uint64) uint32 {
	if n < p.SwitchAt {
		return p.V1
	}
	return p.V2
}

// MostlyConstant produces Dominant with probability P and otherwise a value
// drawn from a small noise set — a semi-invariant load.
type MostlyConstant struct {
	Seed     uint64
	Dominant uint32
	P        float64
}

// Value implements Model.
func (m MostlyConstant) Value(n uint64) uint32 {
	z := m.Seed + 0x9e3779b97f4a7c15*(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if float64(z>>11)/float64(1<<53) < m.P {
		return m.Dominant
	}
	return m.Dominant + 1 + uint32(z%7)
}

// Stride produces Base + n×Step — a never-invariant induction load.
type Stride struct {
	Base, Step uint32
}

// Value implements Model.
func (s Stride) Value(n uint64) uint32 { return s.Base + uint32(n)*s.Step }
