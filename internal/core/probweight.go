package core

// probAlpha is the EWMA step. A power of two keeps the float arithmetic
// exactly reproducible across platforms (every operation is an IEEE-exact
// multiply-add on well-scaled values).
const probAlpha = 1.0 / 32

// probPrior is the estimate an untouched unit starts from.
const probPrior = 0.5

// stepProbWeight is the probweight policy. It estimates the unit's outcome
// probability with an exponential moving average and deploys speculation
// while the estimate's confidence stays inside a hysteresis band — a
// probabilistic-dataflow-style weighting (after Di Pierro & Wiklicky:
// program behavior as a probability distribution rather than a sampled
// window) in place of the paper's windowed monitor.
//
// Mechanics: est tracks P(outcome=true) as an EWMA with a fixed power-of-two
// step (probAlpha), seeded at probPrior. The first MonitorPeriod events
// (counted in monSeen) only warm the estimate. After warmup, the unit
// deploys the likelier direction when its confidence max(est, 1-est)
// reaches SelectThreshold, and undeploys when confidence falls below
// EvictBias — both through the same optimization-latency deployment
// machinery as the reactive FSM, so deployed code goes live (and lame-ducks
// out) OptLatency instructions later. MaxOptimizations retires oscillating
// units exactly like the paper's model.
//
// The policy is a pure function of the event sequence (the EWMA uses a fixed
// step, never a clock or RNG), so replay and replication reproduce it
// bit-exactly.
func (u *Unit) stepProbWeight(p *Params, outcome bool, instr uint64) Verdict {
	if u.execs == 0 {
		// The zero Unit is untouched, and an untouched unit holds the
		// prior; a touched one (execs ≥ 1) carries its own estimate.
		u.est = probPrior
	}
	v := u.observe(b2u(outcome), instr)

	x := 0.0
	if outcome {
		x = 1.0
	}
	u.est += probAlpha * (x - u.est)

	if u.state == Retired {
		return v
	}
	if uint64(u.monSeen) < p.MonitorPeriod {
		u.monSeen++
		return v
	}

	dir := u.est >= 0.5
	conf := u.est
	if !dir {
		conf = 1 - u.est
	}
	switch u.state {
	case Monitor:
		if conf >= p.SelectThreshold {
			if u.optCount >= p.MaxOptimizations {
				u.state = Retired
				break
			}
			u.optCount++
			u.spec = b2u(dir)
			u.everBiased = true
			u.dep.deploy(u.spec, instr+p.OptLatency)
			u.state = Biased
		}
	case Biased:
		if p.NoEviction {
			break
		}
		// Like the reactive FSM, outcomes only count against the deployed
		// code once it is actually live in the classified direction.
		if !u.dep.live() || u.dep.liveSpec != u.spec {
			break
		}
		if b2u(dir) != u.spec || conf < p.EvictBias {
			u.evictions++
			u.dep.undeploy(instr + p.OptLatency)
			u.state = Monitor
		}
	}
	return v
}
