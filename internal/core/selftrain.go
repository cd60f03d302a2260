package core

// stepSelfTrain is the self-training profile applied online: observe the
// unit's first MonitorPeriod events, then decide once — deploy the majority
// direction permanently when its bias clears SelectThreshold, otherwise never
// speculate. There is no eviction and no revisit; both outcomes are terminal.
//
// This is the open-loop baseline the paper's Figure 5 plots as
// "self-train-99": it captures initial behavior perfectly and reacts to
// nothing, which is exactly the contrast the reactive arcs exist to fix.
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
