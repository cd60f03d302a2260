package core

import (
	"errors"
	"math"
	"testing"
)

// TestParamsRange pins the bounds Params.Validate enforces for the 32-bit
// unit counters: each bounding count is accepted at MaxUint32 and rejected
// with ErrParamRange one above it, by every constructor.
func TestParamsRange(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Params, uint64)
	}{
		{"MonitorPeriod", func(p *Params, v uint64) { p.MonitorPeriod = v }},
		{"WaitPeriod", func(p *Params, v uint64) { p.WaitPeriod = v }},
		{"SampleLen", func(p *Params, v uint64) { p.SampleLen = v }},
		{"SamplePeriod", func(p *Params, v uint64) { p.SamplePeriod = v }},
	}
	for _, f := range fields {
		for _, tc := range []struct {
			v  uint64
			ok bool
		}{{math.MaxUint32, true}, {math.MaxUint32 + 1, false}} {
			p := DefaultParams()
			f.set(&p, tc.v)
			check := func(ctor string, err error) {
				t.Helper()
				if tc.ok && err != nil {
					t.Errorf("%s with %s = %d: %v", ctor, f.name, tc.v, err)
				}
				if !tc.ok && !errors.Is(err, ErrParamRange) {
					t.Errorf("%s with %s = %d: err = %v, want ErrParamRange", ctor, f.name, tc.v, err)
				}
			}
			for _, policy := range PolicyNames() {
				_, err := NewRule(policy, p)
				check("NewRule("+policy+")", err)
				_, err = NewPolicySet(policy, p)
				check("NewPolicySet("+policy+")", err)
			}
			check("New", func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err, _ = r.(error)
					}
				}()
				New(p)
				return nil
			}())
		}
	}

	// Sampling eviction needs the sample to fit its cycle.
	p := DefaultParams().WithSamplingEviction()
	p.SampleLen = p.SamplePeriod + 1
	if err := p.Validate(); !errors.Is(err, ErrParamRange) {
		t.Errorf("SampleLen > SamplePeriod with sampling eviction: err = %v, want ErrParamRange", err)
	}
	p.EvictBySampling = false
	if err := p.Validate(); err != nil {
		t.Errorf("SampleLen > SamplePeriod without sampling eviction: %v", err)
	}

	// Every scale the daemon and the experiments use stays in range.
	for _, k := range []uint64{0, 1, 10, 200, 1 << 20} {
		if err := DefaultParams().Scaled(k).Validate(); err != nil {
			t.Errorf("DefaultParams().Scaled(%d): %v", k, err)
		}
	}
}

// TestMajorityAbove2To31 imports a unit whose monitor window holds more
// than 2³¹ taken executions, one short of a 3·10⁹ MonitorPeriod, and feeds
// it one more taken event. The window is all taken, so it must select;
// computing taken*2 in 32 bits would wrap and call the window not-taken.
func TestMajorityAbove2To31(t *testing.T) {
	p := DefaultParams()
	p.MonitorPeriod = 3_000_000_000
	p.OptLatency = 0
	const n = 3_000_000_000 - 1
	st := BranchState{Execs: n, MonSeen: n, MonExecs: n, MonTaken: n}

	for _, policy := range []string{PolicyReactive, PolicySelfTrain} {
		r, err := NewRule(policy, p)
		if err != nil {
			t.Fatal(err)
		}
		var u Unit
		if err := u.Import(st); err != nil {
			t.Fatal(err)
		}
		r.Step(&u, true, 1)
		if got := u.State(); got != Biased {
			t.Errorf("%s: state after the window = %v, want Biased", policy, got)
		}
		if !u.dep.nextDir {
			t.Errorf("%s: selected the not-taken direction", policy)
		}
	}
}

// TestBranchStateValidate pins what a Unit refuses to import: an unknown
// state, or a window counter above MaxUint32. A refused import leaves the
// unit as it was.
func TestBranchStateValidate(t *testing.T) {
	fields := []func(*BranchState) *uint64{
		func(st *BranchState) *uint64 { return &st.MonSeen },
		func(st *BranchState) *uint64 { return &st.MonExecs },
		func(st *BranchState) *uint64 { return &st.MonTaken },
		func(st *BranchState) *uint64 { return &st.CyclePos },
		func(st *BranchState) *uint64 { return &st.SmpExecs },
		func(st *BranchState) *uint64 { return &st.SmpWrong },
		func(st *BranchState) *uint64 { return &st.WaitLeft },
	}
	for i, field := range fields {
		st := BranchState{State: Biased, Execs: 1}
		*field(&st) = math.MaxUint32
		if err := st.Validate(); err != nil {
			t.Errorf("field %d at MaxUint32: %v", i, err)
		}
		*field(&st) = math.MaxUint32 + 1
		if err := st.Validate(); err == nil {
			t.Errorf("field %d at MaxUint32+1 passed Validate", i)
		}
		var u Unit
		if err := u.Import(BranchState{State: Unbiased, Execs: 7, WaitLeft: 3}); err != nil {
			t.Fatal(err)
		}
		before, _ := u.Export()
		if err := u.Import(st); err == nil {
			t.Errorf("field %d at MaxUint32+1: Import accepted it", i)
		}
		if after, _ := u.Export(); after != before {
			t.Errorf("field %d: a refused import changed the unit to %+v", i, after)
		}
	}
	if err := (BranchState{State: Retired + 1}).Validate(); err == nil {
		t.Error("an unknown state passed Validate")
	}
}
