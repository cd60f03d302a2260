package core

// stepSelfTrain is the initial-behavior mechanism of Section 2.2 run
// online: observe the unit's first MonitorPeriod events, then decide once —
// deploy the majority direction permanently when its bias clears
// SelectThreshold, otherwise never speculate. There is no eviction and no
// revisit; both outcomes are terminal.
//
// At OptLatency 0 this is the paper's Figure 2 crosses: it trusts the
// initial behavior and reacts to nothing after it, which is exactly the
// contrast the reactive arcs exist to fix.
func (u *Unit) stepSelfTrain(p *Params, outcome bool, instr uint64) Verdict {
	out := b2u(outcome)
	v := u.observe(out, instr)
	if u.state == Monitor {
		u.monSeen++
		u.monTaken += out
		if uint64(u.monSeen) >= p.MonitorPeriod {
			u.classifyOnce(p, instr)
		}
	}
	return v
}

// classifyOnce makes the one-shot training decision at the end of the
// window, with classify's 64-bit majority test.
func (u *Unit) classifyOnce(p *Params, instr uint64) {
	taken, seen := uint64(u.monTaken), uint64(u.monSeen)
	majTaken := taken*2 >= seen
	maj := taken
	if !majTaken {
		maj = seen - taken
	}
	if float64(maj) >= p.SelectThreshold*float64(seen) {
		u.spec = b2u(majTaken)
		u.everBiased = true
		u.dep.deploy(u.spec, instr+p.OptLatency)
		u.state = Biased
		return
	}
	u.state = Unbiased
}
