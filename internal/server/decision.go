// Package server turns the in-process reactive controller (internal/core)
// into a long-running, networked speculation-control service: a sharded,
// lock-striped table of per-(program, branch) controllers, an HTTP daemon
// that ingests batches of branch-outcome events in the internal/trace frame
// format and serves classification decisions back, periodic snapshots with
// atomic rename + restore-on-start, and first-class observability
// (/metrics, /healthz, graceful drain).
//
// The paper's controller is a closed-loop online mechanism — it only pays
// off if observations keep flowing back into decisions — which at service
// scale means: many client programs stream their branch outcomes in, and
// each reads back, per event, whether its speculative code should be live
// and in which direction. The service preserves the in-process model
// bit-for-bit: a client replaying a trace through the daemon receives the
// exact decision sequence the in-process harness computes for the same
// trace (cmd/reactiveload -verify checks this end to end).
package server

import (
	"fmt"

	"reactivespec/internal/core"
)

// Decision is the controller's answer for one dynamic branch instance: the
// verdict for the instance itself plus the branch's resulting classification
// and live-deployment status.
type Decision struct {
	// Verdict reports how the instance interacted with the speculative
	// code live at that instant.
	Verdict core.Verdict
	// State is the branch's classification after observing the instance.
	State core.State
	// Dir is the deployed speculation direction (meaningful when Live).
	Dir bool
	// Live reports whether speculative code is currently deployed.
	Live bool
}

// Decision wire encoding, one byte per event:
//
//	bits 0-1  verdict (core.Verdict)
//	bits 2-3  state   (core.State)
//	bit  4    direction
//	bit  5    live
const (
	decVerdictMask = 0b0000_0011
	decStateShift  = 2
	decStateMask   = 0b0000_1100
	decDirBit      = 1 << 4
	decLiveBit     = 1 << 5
	decValidMask   = decVerdictMask | decStateMask | decDirBit | decLiveBit
)

// Encode packs the decision into its one-byte wire form. It does not branch
// on Dir or Live: they follow the event data, and the batched apply loop
// packs one decision per event.
func (d Decision) Encode() byte {
	return byte(d.Verdict)&0x3 | (byte(d.State)&0x3)<<decStateShift | bit(d.Dir)*decDirBit | bit(d.Live)*decLiveBit
}

// bit is b as 0 or 1; the compiler turns it into a move, not a branch.
func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeDecision unpacks a wire byte.
func DecodeDecision(b byte) (Decision, error) {
	if b&^byte(decValidMask) != 0 {
		return Decision{}, fmt.Errorf("server: invalid decision byte %#02x", b)
	}
	v := core.Verdict(b & decVerdictMask)
	if v > core.Misspec {
		return Decision{}, fmt.Errorf("server: invalid verdict in decision byte %#02x", b)
	}
	return Decision{
		Verdict: v,
		State:   core.State((b & decStateMask) >> decStateShift),
		Dir:     b&decDirBit != 0,
		Live:    b&decLiveBit != 0,
	}, nil
}

// String renders the decision compactly ("biased→taken live correct").
func (d Decision) String() string {
	dir := "not-taken"
	if d.Dir {
		dir = "taken"
	}
	live := "idle"
	if d.Live {
		live = "live"
	}
	return fmt.Sprintf("%s→%s %s %s", d.State, dir, live, d.Verdict)
}
