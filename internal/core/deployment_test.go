package core

import (
	"math"
	"testing"

	"reactivespec/internal/trace"
)

// TestEvictThenReselectOverlap exercises the deployment lifecycle across an
// eviction followed by a re-selection in the opposite direction while the
// stale code is still deployed: the verdicts must follow the *deployed*
// code at every instant, not the classification state.
func TestEvictThenReselectOverlap(t *testing.T) {
	p := testParams()
	p.OptLatency = 100 // 20 events at 5 instructions each
	f := &feeder{ctl: New(p)}
	const id = trace.BranchID(0)

	f.repeat(id, true, 10) // monitor → biased (taken), live at +100
	f.repeat(id, true, 25) // deployed; correct

	// Reversal: two misspecs evict; the stale taken-speculation stays
	// live for 100 instructions (20 events).
	f.repeat(id, false, 2)
	if got := f.ctl.UnitState(id); got != Monitor {
		t.Fatalf("state = %v, want monitor", got)
	}
	// Next 10 not-taken events complete the re-monitor window and
	// re-select not-taken, while the stale code still misspeculates.
	_, misspec, _ := f.repeat(id, false, 10)
	if misspec != 10 {
		t.Fatalf("lame-duck misspecs = %d, want 10", misspec)
	}
	if got := f.ctl.UnitState(id); got != Biased {
		t.Fatalf("state after re-monitor = %v, want biased", got)
	}
	// Events until the stale code is undeployed: eviction happened at
	// instruction 185, so the code stays live through instruction 284 —
	// 9 more events after the 12 already counted.
	_, misspec, _ = f.repeat(id, false, 9)
	if misspec != 9 {
		t.Fatalf("remaining lame-duck misspecs = %d, want 9", misspec)
	}
	// Window between undeploy and the new deployment: unspeculated.
	correct, misspec, notspec := f.repeat(id, false, 10)
	if misspec != 0 || correct != 0 || notspec != 10 {
		t.Fatalf("between deployments: correct=%d misspec=%d notspec=%d", correct, misspec, notspec)
	}
	// The not-taken speculation eventually goes live.
	correct, _, _ = f.repeat(id, false, 30)
	if correct < 25 {
		t.Fatalf("new-direction corrects = %d, want most of 30", correct)
	}
	dir, live := f.ctl.Speculating(id)
	if !live || dir {
		t.Fatalf("Speculating = (%v, %v), want (false, true)", dir, live)
	}
}

// TestDeploymentPrimitive tests the deployment state machine directly.
func TestDeploymentPrimitive(t *testing.T) {
	var d deployment
	if d.live() {
		t.Fatal("zero deployment is live")
	}
	d.deploy(1, 100)
	d.tick(99)
	if d.live() {
		t.Fatal("live before activation instant")
	}
	d.tick(100)
	if !d.live() || d.liveSpec != 1 {
		t.Fatal("not live at activation instant")
	}
	d.undeploy(200)
	d.tick(199)
	if !d.live() {
		t.Fatal("undeployed early")
	}
	d.tick(200)
	if d.live() {
		t.Fatal("still live after undeploy instant")
	}
}

func TestDeploymentReplacePending(t *testing.T) {
	var d deployment
	d.deploy(1, 100)
	d.deploy(0, 150) // replaces the pending deployment
	d.tick(120)
	if d.live() {
		t.Fatal("replaced deployment went live")
	}
	d.tick(150)
	if !d.live() || d.liveSpec != 0 {
		t.Fatal("replacement not live in new direction")
	}
	if d.liveUntil != math.MaxUint64 {
		t.Fatal("live deployment should be unbounded")
	}
}

func TestDeploymentUndeployCancelsPending(t *testing.T) {
	var d deployment
	d.deploy(1, 50)
	d.tick(50)
	d.deploy(0, 200)
	d.undeploy(100) // eviction also cancels any pending deployment
	d.tick(100)
	if d.live() {
		t.Fatal("live after undeploy")
	}
	d.tick(250)
	if d.live() {
		t.Fatal("cancelled pending deployment went live")
	}
}

func TestDeploymentZeroInstantClamped(t *testing.T) {
	var d deployment
	d.deploy(1, 0) // 0 is the "nothing pending" sentinel; must clamp
	d.tick(1)
	if !d.live() {
		t.Fatal("zero-instant deployment never activated")
	}
	d.undeploy(0)
	d.tick(1)
	if d.live() {
		t.Fatal("zero-instant undeploy never applied")
	}
}
