package core

// stepSelfTrain is the self-training profile applied online: observe the
// unit's first MonitorPeriod events, then decide once — deploy the majority
// direction permanently when its bias clears SelectThreshold, otherwise never
// speculate. There is no eviction and no revisit; both outcomes are terminal.
//
// This is the open-loop baseline the paper's Figure 5 plots as
// "self-train-99": it captures initial behavior perfectly and reacts to
// nothing, which is exactly the contrast the reactive arcs exist to fix.
func (u *Unit) stepSelfTrain(p *Params, s *Stats, outcome bool, instr uint64) Verdict {
	v := u.observe(s, outcome, instr)
	if u.state == Monitor {
		u.monSeen++
		if outcome {
			u.monTaken++
		}
		if u.monSeen >= p.MonitorPeriod {
			u.classifyOnce(p, s, instr)
		}
	}
	return v
}

// classifyOnce makes the one-shot training decision at the end of the
// window.
func (u *Unit) classifyOnce(p *Params, s *Stats, instr uint64) {
	majTaken := u.monTaken*2 >= u.monSeen
	maj := u.monTaken
	if !majTaken {
		maj = u.monSeen - u.monTaken
	}
	if float64(maj) >= p.SelectThreshold*float64(u.monSeen) {
		u.direction = majTaken
		u.everBiased = true
		s.Selections++
		u.dep.deploy(majTaken, instr+p.OptLatency)
		u.state = Biased
		return
	}
	u.state = Unbiased
}
