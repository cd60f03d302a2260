// Package faults injects deterministic, seeded faults into branch-event
// streams so the speculation controllers can be evaluated under hostile
// conditions rather than only the clean, well-calibrated streams the
// workload generators produce.
//
// Every injector is a stream transformer: it wraps a trace.Stream and yields
// a perturbed stream. All randomness derives from the injector's seed, so a
// faulted stream is exactly reproducible: the same seed over the same inner
// stream yields the same events. Zero-intensity injectors are the identity
// transform.
//
// The injectors model the failure classes the paper's robustness argument
// is about: outcome corruption (noise in the observed outcomes), event loss
// and duplication (imperfect monitoring), misspeculation storms (a branch's
// bias inverting for a window — the mid-run behavior change of Section 2.3
// turned adversarial), early stream truncation, and branch-ID scrambling
// (dynamic instances from code the profile never saw).
package faults

import (
	"math"

	"reactivespec/internal/trace"
)

// rng is a splitmix64 sequence generator (the same generator the workload
// package uses, duplicated here to keep the fault layer self-contained).
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

// hash64 mixes x through the splitmix64 finalizer.
func hash64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashFrac maps x to a uniform value in [0, 1) deterministically.
func hashFrac(x uint64) float64 {
	return float64(hash64(x)>>11) / float64(1<<53)
}

// satGap saturates an accumulated gap at the Event.Gap range, never below 1.
func satGap(g uint64) uint32 {
	if g < 1 {
		return 1
	}
	if g > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(g)
}

// Flip corrupts outcomes: each event's Taken bit is inverted independently
// with probability rate. It models observation noise and predictor-state
// corruption.
func Flip(s trace.Stream, rate float64, seed uint64) trace.Stream {
	return &flipStream{s: s, rate: rate, rnd: rng{state: seed}}
}

type flipStream struct {
	s    trace.Stream
	rate float64
	rnd  rng
}

func (f *flipStream) Next() (trace.Event, bool) {
	ev, ok := f.s.Next()
	if !ok {
		return trace.Event{}, false
	}
	if f.rate > 0 && f.rnd.float64() < f.rate {
		ev.Taken = !ev.Taken
	}
	return ev, true
}

// Drop removes events: each event is dropped independently with probability
// rate. Instruction gaps of dropped events are folded into the next surviving
// event — the same carry semantics as trace.Filter — so instruction counts
// are conserved. If the stream ends while gap is still carried (the tail of
// the stream was dropped), the last dropped event is emitted carrying the
// accumulated gap, so the total gap of the stream is conserved exactly
// (up to Gap's uint32 saturation).
func Drop(s trace.Stream, rate float64, seed uint64) trace.Stream {
	return &dropStream{s: s, rate: rate, rnd: rng{state: seed}}
}

type dropStream struct {
	s    trace.Stream
	rate float64

	rnd      rng
	carry    uint64
	last     trace.Event
	haveLast bool
	done     bool
}

func (d *dropStream) Next() (trace.Event, bool) {
	if d.done {
		return trace.Event{}, false
	}
	for {
		ev, ok := d.s.Next()
		if !ok {
			d.done = true
			if d.haveLast && d.carry > 0 {
				ev := d.last
				ev.Gap = satGap(d.carry)
				return ev, true
			}
			return trace.Event{}, false
		}
		if d.rate > 0 && d.rnd.float64() < d.rate {
			d.carry += uint64(ev.Gap)
			d.last, d.haveLast = ev, true
			continue
		}
		if d.carry > 0 {
			ev.Gap = satGap(d.carry + uint64(ev.Gap))
			d.carry, d.haveLast = 0, false
		}
		return ev, true
	}
}

// Duplicate repeats events: each event is emitted twice with probability
// rate, its instruction gap split between the two copies so the total gap is
// conserved. Events with Gap 1 are never duplicated (the gap cannot be split
// while keeping both halves at least 1).
func Duplicate(s trace.Stream, rate float64, seed uint64) trace.Stream {
	return &dupStream{s: s, rate: rate, rnd: rng{state: seed}}
}

type dupStream struct {
	s    trace.Stream
	rate float64

	rnd     rng
	dup     trace.Event
	pending bool
}

func (d *dupStream) Next() (trace.Event, bool) {
	if d.pending {
		d.pending = false
		return d.dup, true
	}
	ev, ok := d.s.Next()
	if !ok {
		return trace.Event{}, false
	}
	if d.rate > 0 && ev.Gap >= 2 && d.rnd.float64() < d.rate {
		half := ev.Gap / 2
		d.dup = ev
		d.dup.Gap = half
		d.pending = true
		ev.Gap -= half
	}
	return ev, true
}

// StormConfig parameterizes misspeculation storms.
type StormConfig struct {
	// Period is the mean number of events between storm onsets (a storm
	// starts at each quiet event with probability 1/Period). 0 disables.
	Period uint64
	// Window is the storm length in events.
	Window uint64
	// VictimFrac is the fraction of static branches whose outcomes are
	// inverted while a storm is active; the victim set is chosen
	// deterministically per storm. 0 disables.
	VictimFrac float64
}

func (c StormConfig) enabled() bool {
	return c.Period > 0 && c.Window > 0 && c.VictimFrac > 0
}

// Storm injects misspeculation storms: windows during which a
// deterministically-chosen subset of branches has its outcome inverted on
// every execution. A stably-biased victim becomes stably anti-biased for the
// window — the worst case for any controller that decided once and never
// reconsiders.
func Storm(s trace.Stream, cfg StormConfig, seed uint64) trace.Stream {
	return &stormStream{s: s, cfg: cfg, seed: seed, rnd: rng{state: seed}}
}

type stormStream struct {
	s    trace.Stream
	cfg  StormConfig
	seed uint64

	rnd     rng
	stormID uint64 // 1-based id of the current/most recent storm
	left    uint64 // events remaining in the active storm
}

func (st *stormStream) Next() (trace.Event, bool) {
	ev, ok := st.s.Next()
	if !ok {
		return trace.Event{}, false
	}
	if !st.cfg.enabled() {
		return ev, true
	}
	if st.left == 0 {
		if st.rnd.float64() < 1/float64(st.cfg.Period) {
			st.stormID++
			st.left = st.cfg.Window
		}
	}
	if st.left > 0 {
		st.left--
		// Victim membership hashes (branch, storm, seed) so each storm
		// hits a different subset, independent of event order.
		key := uint64(ev.Branch)<<32 ^ st.stormID ^ st.seed*0x9e3779b97f4a7c15
		if hashFrac(key) < st.cfg.VictimFrac {
			ev.Taken = !ev.Taken
		}
	}
	return ev, true
}

// Scramble remaps a deterministically-chosen fraction of static branches to
// IDs at or above base, modeling dynamic instances from code the profile
// never saw (unprofiled code). The mapping is stable: a scrambled branch maps
// to the same new ID on every execution, so the stream stays a coherent
// branch trace — just one whose IDs a previous-run profile cannot match.
// base should be at least the workload's static branch count so scrambled
// IDs never collide with profiled ones.
func Scramble(s trace.Stream, rate float64, base trace.BranchID, seed uint64) trace.Stream {
	return &scrambleStream{s: s, rate: rate, base: base, seed: seed}
}

// scrambleSpread bounds how far above base scrambled IDs land, keeping
// dense per-branch controller tables small.
const scrambleSpread = 1 << 12

type scrambleStream struct {
	s    trace.Stream
	rate float64
	base trace.BranchID
	seed uint64
}

func (sc *scrambleStream) Next() (trace.Event, bool) {
	ev, ok := sc.s.Next()
	if !ok {
		return trace.Event{}, false
	}
	if sc.rate > 0 {
		h := hash64(uint64(ev.Branch) ^ sc.seed*0xbf58476d1ce4e5b9)
		if float64(h>>11)/float64(1<<53) < sc.rate {
			ev.Branch = sc.base + trace.BranchID(hash64(h)%scrambleSpread)
		}
	}
	return ev, true
}

// Mix is a composite fault configuration. Apply chains the enabled injectors
// in a fixed order (scramble, storm, flip, drop, duplicate, truncate), each
// drawing from an independent seed derived from Seed, so two Mixes with the
// same fields perturb identically.
type Mix struct {
	// FlipRate is the per-event outcome-corruption probability.
	FlipRate float64
	// DropRate and DupRate are the per-event loss and duplication
	// probabilities.
	DropRate, DupRate float64
	// Storm configures misspeculation storms.
	Storm StormConfig
	// ScrambleRate is the fraction of static branches remapped to
	// unprofiled IDs at or above ScrambleBase.
	ScrambleRate float64
	ScrambleBase trace.BranchID
	// TruncateFrac is the fraction of the run cut from the end; it needs
	// the nominal event count passed to Apply.
	TruncateFrac float64
	// Seed drives all the randomness in the mix.
	Seed uint64
}

// Zero reports whether the mix perturbs nothing (Apply is the identity).
func (m Mix) Zero() bool {
	return m.FlipRate <= 0 && m.DropRate <= 0 && m.DupRate <= 0 &&
		!(m.Storm.enabled()) && m.ScrambleRate <= 0 && m.TruncateFrac <= 0
}

// Apply wraps s with the mix's enabled injectors. totalEvents is the nominal
// length of s, used only for truncation.
func (m Mix) Apply(s trace.Stream, totalEvents uint64) trace.Stream {
	if m.ScrambleRate > 0 {
		s = Scramble(s, m.ScrambleRate, m.ScrambleBase, hash64(m.Seed+1))
	}
	if m.Storm.enabled() {
		s = Storm(s, m.Storm, hash64(m.Seed+2))
	}
	if m.FlipRate > 0 {
		s = Flip(s, m.FlipRate, hash64(m.Seed+3))
	}
	if m.DropRate > 0 {
		s = Drop(s, m.DropRate, hash64(m.Seed+4))
	}
	if m.DupRate > 0 {
		s = Duplicate(s, m.DupRate, hash64(m.Seed+5))
	}
	if m.TruncateFrac > 0 {
		keep := uint64(float64(totalEvents) * (1 - m.TruncateFrac))
		s = trace.Head(s, keep)
	}
	return s
}

// IntensityMix maps a single intensity knob in [0, 1] to a composite Mix
// exercising all five fault classes at once, every component scaling
// linearly with intensity — the canonical hostile-run configuration shared
// by the chaos experiment (internal/experiments) and the service load
// generator (cmd/reactiveload). totalEvents is the nominal run length (it
// sizes the misspeculation-storm period and window), scrambleBase the first
// branch ID outside the profiled population, and seed drives all the mix's
// randomness.
func IntensityMix(intensity float64, totalEvents uint64, scrambleBase trace.BranchID, seed uint64) Mix {
	maxU64 := func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	return Mix{
		FlipRate: 0.15 * intensity,
		DropRate: 0.10 * intensity,
		DupRate:  0.10 * intensity,
		Storm: StormConfig{
			Period:     maxU64(totalEvents/16, 1_000),
			Window:     maxU64(totalEvents/64, 250),
			VictimFrac: 0.5 * intensity,
		},
		ScrambleRate: 0.25 * intensity,
		ScrambleBase: scrambleBase,
		TruncateFrac: 0.15 * intensity,
		Seed:         seed,
	}
}
