package values

import (
	"reactivespec/internal/core"
)

// LoadSpec describes one static load of a value workload.
type LoadSpec struct {
	Weight float64
	Model  Model
	// Class labels the population slice ("invariant", "semi", "phase",
	// "stride") for reports and tests.
	Class string
}

// Suite is a synthetic load-value workload: the value-behavior analog of a
// workload.Spec. Its population follows the published value-locality
// characterizations (Lipasti et al., the paper's reference [8]): a sizeable
// minority of loads are effectively invariant, some are semi-invariant, some
// switch constants at phase changes, and the rest never repeat.
type Suite struct {
	Name    string
	Seed    uint64
	Events  uint64
	MeanGap uint32
	Loads   []LoadSpec
}

// BuildSuite constructs the default value workload at the given scale
// (1.0 ≈ 4 M dynamic loads).
func BuildSuite(seed uint64, scale float64) *Suite {
	if scale <= 0 {
		scale = 1
	}
	events := uint64(4_000_000 * scale)
	rnd := seed
	next := func() uint64 {
		rnd += 0x9e3779b97f4a7c15
		z := rnd
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	frand := func() float64 { return float64(next()>>11) / float64(1<<53) }

	s := &Suite{Name: "valueloc", Seed: seed, Events: events, MeanGap: 5}
	add := func(n int, weightEach float64, class string, mk func(i int) Model) {
		for i := 0; i < n; i++ {
			s.Loads = append(s.Loads, LoadSpec{Weight: weightEach, Model: mk(i), Class: class})
		}
	}
	// ~30% of dynamic loads fully invariant (constant globals, config
	// fields — the Figure 1 x.d == 32 case).
	add(60, 0.30/60, "invariant", func(i int) Model {
		return MostlyConstant{Seed: next(), Dominant: uint32(100 + i), P: 1 - 2e-4*(0.5+frand())}
	})
	// ~15% semi-invariant (55–95% dominant): profitable for hardware
	// value prediction but not for unchecked software speculation.
	add(50, 0.15/50, "semi", func(i int) Model {
		return MostlyConstant{Seed: next(), Dominant: uint32(500 + i), P: 0.55 + 0.4*frand()}
	})
	// ~10% phase-switching constants (a reload changes the value): the
	// changers that require reactive control.
	add(12, 0.10/12, "phase", func(i int) Model {
		execs := 0.10 / 12 * float64(events)
		return PhaseConstant{
			V1:       uint32(900 + i),
			V2:       uint32(1900 + i),
			SwitchAt: uint64((0.3 + 0.4*frand()) * execs),
		}
	})
	// ~45% never invariant (induction variables, streaming data).
	add(80, 0.45/80, "stride", func(i int) Model {
		return Stride{Base: uint32(next()), Step: uint32(1 + next()%8)}
	})
	return s
}

// StudyResult summarizes one value-speculation run plus the self-training
// reference.
type StudyResult struct {
	// Reactive is the reactive controller's outcome.
	Reactive core.Stats
	// ReactiveStatic are the controller's static counts.
	Touched, Biased, Evicted int
	// SelfTrainCorrectPct / SelfTrainWrongPct evaluate oracle selection
	// (whole-run modal value, 99% threshold).
	SelfTrainCorrectPct, SelfTrainWrongPct float64
	// NoEvict is the open-loop outcome.
	NoEvict core.Stats
}

// RunStudy drives the suite through the reactive controller, the open-loop
// variant, and the self-training oracle.
func (s *Suite) RunStudy(params core.Params) StudyResult {
	var res StudyResult

	run := func(p core.Params) (*core.ValueController, core.Stats) {
		ctl := core.NewValueController(p)
		replay(s, func(id int, v uint32, instr uint64) {
			ctl.AddInstrs(uint64(s.MeanGap))
			ctl.OnValue(id, v, instr)
		})
		return ctl, ctl.Stats()
	}

	ctl, st := run(params)
	res.Reactive = st
	res.Touched, res.Biased, res.Evicted, _ = ctl.StaticCounts()

	_, res.NoEvict = run(params.WithNoEviction())

	// Self-training oracle: whole-run modal value per load.
	type modal struct {
		counts map[uint32]uint64
		execs  uint64
	}
	modals := make([]modal, len(s.Loads))
	replay(s, func(id int, v uint32, _ uint64) {
		if modals[id].counts == nil {
			modals[id].counts = make(map[uint32]uint64)
		}
		modals[id].counts[v]++
		modals[id].execs++
	})
	specValue := make([]uint32, len(s.Loads))
	speculate := make([]bool, len(s.Loads))
	for id, m := range modals {
		var bestV uint32
		var bestN uint64
		for v, n := range m.counts {
			if n > bestN {
				bestV, bestN = v, n
			}
		}
		if m.execs > 0 && float64(bestN) >= 0.99*float64(m.execs) {
			specValue[id] = bestV
			speculate[id] = true
		}
	}
	var events, correct, wrong uint64
	replay(s, func(id int, v uint32, _ uint64) {
		events++
		if !speculate[id] {
			return
		}
		if v == specValue[id] {
			correct++
		} else {
			wrong++
		}
	})
	res.SelfTrainCorrectPct = 100 * float64(correct) / float64(events)
	res.SelfTrainWrongPct = 100 * float64(wrong) / float64(events)
	return res
}

// replay streams the suite's dynamic loads deterministically.
func replay(s *Suite, f func(id int, v uint32, instr uint64)) {
	weights := make([]float64, len(s.Loads))
	total := 0.0
	for i, l := range s.Loads {
		weights[i] = l.Weight
		total += l.Weight
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc / total
	}
	rnd := s.Seed ^ 0xabcd
	next := func() uint64 {
		rnd += 0x9e3779b97f4a7c15
		z := rnd
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	execIdx := make([]uint64, len(s.Loads))
	var instr uint64
	for e := uint64(0); e < s.Events; e++ {
		x := float64(next()>>11) / float64(1<<53)
		id := searchFloat(cum, x)
		n := execIdx[id]
		execIdx[id] = n + 1
		instr += uint64(s.MeanGap)
		f(id, s.Loads[id].Model.Value(n), instr)
	}
}

func searchFloat(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
