package main

import (
	"testing"
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// fakeBase is a bare sched.Scheduler; the fake* types below add one
// optional interface each and log calls into it.
type fakeBase struct{ calls []string }

func (f *fakeBase) Name() string                           { return "fake" }
func (f *fakeBase) Enqueue(*query.SubQuery, time.Duration) { f.calls = append(f.calls, "Enqueue") }
func (f *fakeBase) NextBatch(time.Duration) []sched.Batch  { return nil }
func (f *fakeBase) Pending() int                           { return 0 }
func (f *fakeBase) OnRunEnd(float64, float64)              {}
func (f *fakeBase) Alpha() float64                         { return 0 }
func (f *fakeBase) log(c string)                           { f.calls = append(f.calls, c) }
func (f *fakeBase) called(c string) bool                   { return contains(f.calls, c) }
func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

type fakeRV struct{ *fakeBase }
type fakeGA struct{ *fakeBase }
type fakeUP struct{ *fakeBase }
type fakeTC struct{ *fakeBase }
type fakeEX struct{ *fakeBase }

func (f fakeRV) SetResidencyVersion(func() uint64)            { f.log("SetResidencyVersion") }
func (f fakeGA) SetGateSource(func(query.ID) sched.GateState) { f.log("SetGateSource") }
func (f fakeUP) AtomUtility(store.AtomID) float64             { f.log("AtomUtility"); return 0 }
func (f fakeUP) StepMean(int) float64                         { return 0 }
func (f fakeUP) PendingSteps() []int                          { return nil }
func (f fakeTC) SetTracer(*obs.Tracer)                        { f.log("SetTracer") }
func (f fakeEX) SetExplain(bool)                              { f.log("SetExplain") }
func (f fakeEX) LastExplain() *sched.Explain                  { return nil }

// fakeWith builds a scheduler implementing exactly the optional
// interfaces in mask, for the masks the decorator supports.
func fakeWith(mask int) (sched.Scheduler, *fakeBase) {
	b := &fakeBase{}
	rv, ga, up, tc, ex := fakeRV{b}, fakeGA{b}, fakeUP{b}, fakeTC{b}, fakeEX{b}
	type (
		RV = sched.ResidencyVersioned
		GA = sched.GateAware
		UP = sched.UtilityProvider
		TC = sched.Traced
		EX = sched.Explained
		S  = sched.Scheduler
	)
	switch mask {
	case 0:
		return b, b
	case hasTC | hasEX:
		return struct {
			S
			TC
			EX
		}{b, tc, ex}, b
	case hasRV | hasUP | hasTC | hasEX:
		return struct {
			S
			RV
			UP
			TC
			EX
		}{b, rv, up, tc, ex}, b
	case hasRV | hasGA | hasUP | hasTC | hasEX:
		return struct {
			S
			RV
			GA
			UP
			TC
			EX
		}{b, rv, ga, up, tc, ex}, b
	}
	panic("no fake for this mask")
}

// The decorator implements exactly the optional interfaces of the
// scheduler it wraps and forwards their calls.
func TestWrapSchedForwardsExactly(t *testing.T) {
	for _, mask := range []int{0, hasTC | hasEX, hasRV | hasUP | hasTC | hasEX, hasRV | hasGA | hasUP | hasTC | hasEX} {
		inner, b := fakeWith(mask)
		if got := optionalMask(inner); got != mask {
			t.Fatalf("fake for mask %05b implements %05b", mask, got)
		}
		w, ts, err := wrapSched(inner, nil)
		if err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}
		if got := optionalMask(w); got != mask {
			t.Errorf("mask %05b: wrapped scheduler implements %05b", mask, got)
			continue
		}
		if rv, ok := w.(sched.ResidencyVersioned); ok {
			rv.SetResidencyVersion(nil)
		}
		if ga, ok := w.(sched.GateAware); ok {
			ga.SetGateSource(nil)
		}
		if up, ok := w.(sched.UtilityProvider); ok {
			up.AtomUtility(store.AtomID{})
		}
		if tc, ok := w.(sched.Traced); ok {
			tc.SetTracer(nil)
		}
		if ex, ok := w.(sched.Explained); ok {
			ex.SetExplain(true)
		}
		for bit, call := range map[int]string{hasRV: "SetResidencyVersion", hasGA: "SetGateSource",
			hasUP: "AtomUtility", hasTC: "SetTracer", hasEX: "SetExplain"} {
			if got, want := b.called(call), mask&bit != 0; got != want {
				t.Errorf("mask %05b: %s reached the inner scheduler: %v, want %v", mask, call, got, want)
			}
		}
		w.Enqueue(&query.SubQuery{}, 0)
		w.NextBatch(0)
		if !b.called("Enqueue") || ts.enqueues != 1 || ts.decisions != 1 {
			t.Errorf("mask %05b: Enqueue/NextBatch not forwarded and counted (%d enqueues, %d decisions)",
				mask, ts.enqueues, ts.decisions)
		}
		if w.Name() != "fake" {
			t.Errorf("mask %05b: Name %q not forwarded", mask, w.Name())
		}
	}
}

// A combination the decorator has no case for is refused, never wrapped
// with an interface gained or lost.
func TestWrapSchedRefusesUnknownCombination(t *testing.T) {
	b := &fakeBase{}
	inner := struct {
		sched.Scheduler
		sched.GateAware
	}{b, fakeGA{b}}
	if w, _, err := wrapSched(inner, nil); err == nil {
		t.Fatalf("wrapped a GateAware-only scheduler as %05b", optionalMask(w))
	}
}

// The production schedulers keep their optional interfaces when wrapped.
func TestWrapSchedRealSchedulers(t *testing.T) {
	cost := sched.CostModel{Tb: 41 * time.Millisecond, Tm: 20 * time.Microsecond}
	resident := func(store.AtomID) bool { return false }
	jaws := func() *sched.JAWS {
		return sched.NewJAWS(sched.JAWSConfig{Cost: cost, BatchSize: 10, InitialAlpha: 0.5, Adaptive: true, Resident: resident})
	}
	spec := func(s string) sched.PolicySpec {
		p, err := sched.ParsePolicySpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, s := range map[string]sched.Scheduler{
		"noshare":        sched.NewNoShare(),
		"liferaft":       sched.NewLifeRaft(cost, 1, resident),
		"jaws":           jaws(),
		"qos":            sched.NewQoS(jaws(), cost, 2, 0),
		"gate-aware":     spec("gate-aware").Wrap(jaws()),
		"adaptive-batch": spec("adaptive-batch").Wrap(jaws()),
	} {
		w, _, err := wrapSched(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := optionalMask(w), optionalMask(s); got != want {
			t.Errorf("%s: wrapped implements %05b, inner %05b", name, got, want)
		}
		if w.Name() != s.Name() {
			t.Errorf("%s: name %q, want %q", name, w.Name(), s.Name())
		}
	}
}
