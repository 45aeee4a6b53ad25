package core

import (
	"math"
	"testing"
	"testing/quick"

	"adassure/internal/obs"
)

// frameAt builds a minimal finite frame at time t.
func frameAt(t float64) Frame {
	return Frame{T: t, Dt: 0.05, EstSpeed: 5, GNSSValid: true}
}

func TestSeverityString(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Critical.String() != "critical" {
		t.Error("severity strings wrong")
	}
	if Severity(99).String() == "" {
		t.Error("unknown severity should still render")
	}
}

func TestDebounceValidate(t *testing.T) {
	for _, bad := range []Debounce{{0, 1}, {1, 0}, {3, 2}, {-1, 5}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("debounce %+v accepted", bad)
		}
	}
	if err := (Debounce{2, 3}).Validate(); err != nil {
		t.Errorf("valid debounce rejected: %v", err)
	}
}

// failWhen builds an assertion failing when the frame's CTE exceeds 1.
func failWhen() Assertion {
	return Bound("T1", "test-bound", "test", Warning,
		func(f *Frame) (float64, bool) { return f.CTE, true }, -1, 1)
}

func TestMonitorImmediateDebounce(t *testing.T) {
	m := NewMonitor().Add(failWhen(), Debounce{K: 1, N: 1})
	f := frameAt(0)
	f.CTE = 0.5
	m.Step(f)
	if len(m.Violations()) != 0 {
		t.Fatal("violation on passing frame")
	}
	f.T = 0.05
	f.CTE = 2
	m.Step(f)
	vs := m.Violations()
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	v := vs[0]
	if v.AssertionID != "T1" || v.T != 0.05 || v.FirstBreach != 0.05 {
		t.Errorf("violation metadata wrong: %+v", v)
	}
	if v.Evidence["value"] != 2 {
		t.Errorf("evidence missing: %v", v.Evidence)
	}
}

func TestMonitorKofNDebounce(t *testing.T) {
	m := NewMonitor().Add(failWhen(), Debounce{K: 3, N: 4})
	// Two failing frames then two passing: no violation.
	times := 0.0
	step := func(cte float64) {
		f := frameAt(times)
		f.CTE = cte
		m.Step(f)
		times += 0.05
	}
	step(2)
	step(2)
	step(0)
	step(0)
	if len(m.Violations()) != 0 {
		t.Fatal("2-of-4 should not raise at K=3")
	}
	// Three failures within the window raise exactly once.
	step(2)
	step(2)
	step(2)
	step(2)
	if n := len(m.Violations()); n != 1 {
		t.Fatalf("want 1 violation, got %d", n)
	}
	// Episode continues: no duplicate raises while failing.
	step(2)
	step(2)
	if n := len(m.Violations()); n != 1 {
		t.Fatalf("episode should not re-raise, got %d", n)
	}
	// Full clean window ends the episode; next burst re-raises.
	step(0)
	step(0)
	step(0)
	step(0)
	step(2)
	step(2)
	step(2)
	if n := len(m.Violations()); n != 2 {
		t.Fatalf("want 2 violations after re-arm, got %d", n)
	}
}

func TestMonitorFirstBreachPrecedesRaise(t *testing.T) {
	m := NewMonitor().Add(failWhen(), Debounce{K: 3, N: 3})
	for i, cte := range []float64{2, 2, 2} {
		f := frameAt(float64(i) * 0.05)
		f.CTE = cte
		m.Step(f)
	}
	v := m.Violations()[0]
	if v.FirstBreach != 0 {
		t.Errorf("first breach = %g, want 0 (first failing frame)", v.FirstBreach)
	}
	if v.T != 0.10 {
		t.Errorf("raise time = %g, want 0.10", v.T)
	}
}

func TestMonitorSkipDoesNotAdvance(t *testing.T) {
	// Assertion applicable only when GNSSValid.
	a := Bound("T2", "gated", "gated", Warning, func(f *Frame) (float64, bool) {
		if !f.GNSSValid {
			return 0, false
		}
		return f.CTE, true
	}, -1, 1)
	m := NewMonitor().Add(a, Debounce{K: 2, N: 2})
	f := frameAt(0)
	f.CTE = 5
	m.Step(f) // fail 1
	f.T = 0.05
	f.GNSSValid = false
	m.Step(f) // skipped — must not count as pass or fail
	f.T = 0.10
	f.GNSSValid = true
	m.Step(f) // fail 2 → raise
	if len(m.Violations()) != 1 {
		t.Fatalf("skip frame broke debouncing: %d violations", len(m.Violations()))
	}
}

func TestMonitorSkipsNonFiniteFrames(t *testing.T) {
	m := NewMonitor().Add(failWhen(), Debounce{K: 1, N: 1})
	f := frameAt(0)
	f.EstX = math.NaN()
	f.CTE = 100
	m.Step(f)
	if len(m.Violations()) != 0 {
		t.Error("non-finite frame should be skipped entirely")
	}
	if _, skipped := m.Frames(); skipped != 1 {
		t.Errorf("skipped count = %d", skipped)
	}
}

// TestMonitorCounterFlush: the monitor's counters reach the registry on
// sampled frames and in full on Reset (or Flush), non-finite frames
// counted apart from evaluations; a non-finite sampled frame takes no
// timing sample; and frames seen before an Attach go to the old registry.
func TestMonitorCounterFlush(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor().Add(failWhen(), Debounce{K: 1, N: 1}).Attach(reg)
	const n = 2*obs.SampleEvery + 6
	var published, sampled, skipped int64
	for i := 0; i < n; i++ {
		f := frameAt(float64(i) * 0.05)
		if i%5 == 4 || i == 2*obs.SampleEvery {
			f.EstX = math.NaN()
			skipped++
		} else if i%obs.SampleEvery == 0 {
			published = int64(i + 1)
			sampled++
		}
		m.Step(f)
	}
	if got := reg.Counter("monitor.frames").Value(); got != published {
		t.Errorf("monitor.frames = %d before the flush, want %d (the last finite sampled frame)", got, published)
	}
	m.Reset()
	for name, want := range map[string]int64{
		"monitor.frames": n, "monitor.frames_skipped": skipped, "monitor.T1.evals": n - skipped,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d after Reset, want %d", name, got, want)
		}
	}
	if got := reg.Histogram("monitor.T1.eval_ns").Count(); got != sampled {
		t.Errorf("monitor.T1.eval_ns holds %d observations, want %d", got, sampled)
	}

	m.Step(frameAt(0))
	m.Step(frameAt(0.05))
	other := obs.NewRegistry()
	m.Attach(other).Step(frameAt(0.1))
	m.Flush()
	if a, b := reg.Counter("monitor.frames").Value(), other.Counter("monitor.frames").Value(); a != n+2 || b != 1 {
		t.Errorf("monitor.frames = %d and %d across the re-attach, want %d and 1", a, b, n+2)
	}
}

func TestMonitorDuplicateIDPanics(t *testing.T) {
	m := NewMonitor().Add(failWhen(), Debounce{K: 1, N: 1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate assertion ID should panic")
		}
	}()
	m.Add(failWhen(), Debounce{K: 1, N: 1})
}

func TestMonitorReset(t *testing.T) {
	m := NewMonitor().Add(failWhen(), Debounce{K: 1, N: 1})
	f := frameAt(0)
	f.CTE = 3
	m.Step(f)
	if len(m.Violations()) != 1 {
		t.Fatal("setup failed")
	}
	m.Reset()
	if len(m.Violations()) != 0 {
		t.Error("Reset did not clear violations")
	}
	if p, _ := m.Frames(); p != 0 {
		t.Error("Reset did not clear frame count")
	}
	if len(m.AssertionIDs()) != 1 {
		t.Error("Reset should keep registered assertions")
	}
}

func TestFirstViolationQueries(t *testing.T) {
	m := NewMonitor().
		Add(failWhen(), Debounce{K: 1, N: 1}).
		Add(Bound("T3", "b", "b", Critical, func(f *Frame) (float64, bool) { return f.EstSpeed, true }, 0, 4), Debounce{K: 1, N: 1})
	f := frameAt(1.0)
	f.CTE = 5 // T1 fails; EstSpeed=5 > 4 → T3 fails too
	m.Step(f)
	v, ok := m.FirstViolation()
	if !ok || v.T != 1.0 {
		t.Fatalf("FirstViolation = %+v, %v", v, ok)
	}
	if _, ok := m.FirstViolationAfter(2.0); ok {
		t.Error("FirstViolationAfter(2) should be empty")
	}
	if v, ok := m.FirstViolationAfter(0.5); !ok || v.T != 1.0 {
		t.Error("FirstViolationAfter(0.5) wrong")
	}
	ids := m.FiredIDs()
	if len(ids) != 2 || ids[0] != "T1" || ids[1] != "T3" {
		t.Errorf("FiredIDs = %v", ids)
	}
}

func TestBoundMargin(t *testing.T) {
	a := Bound("B", "b", "b", Info, func(f *Frame) (float64, bool) { return f.CTE, true }, -1, 1)
	f := frameAt(0)
	f.CTE = 0.4
	out := eval(a, f)
	if !out.OK || math.Abs(out.Margin-0.6) > 1e-12 {
		t.Errorf("margin = %g, want 0.6", out.Margin)
	}
	f.CTE = 1.5
	out = eval(a, f)
	if out.OK || math.Abs(out.Margin+0.5) > 1e-12 {
		t.Errorf("outside margin = %g, want -0.5", out.Margin)
	}
}

func TestBoundPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted bounds should panic")
		}
	}()
	Bound("B", "b", "b", Info, func(f *Frame) (float64, bool) { return 0, true }, 1, -1)
}

func TestRateAssertion(t *testing.T) {
	a := Rate("R", "r", "r", Info, func(f *Frame) (float64, bool) { return f.CmdAccel, true }, 10)
	f := frameAt(0)
	f.CmdAccel = 0
	if out := eval(a, f); !out.Skip {
		t.Error("first frame should be skipped")
	}
	f = frameAt(0.1)
	f.CmdAccel = 0.5 // rate 5 ≤ 10
	if out := eval(a, f); !out.OK || out.Skip {
		t.Errorf("rate 5 should pass: %+v", out)
	}
	f = frameAt(0.2)
	f.CmdAccel = 2.5 // rate 20 > 10
	if out := eval(a, f); out.OK {
		t.Error("rate 20 should fail")
	}
	a.Reset()
	f = frameAt(0.3)
	if out := eval(a, f); !out.Skip {
		t.Error("Reset should clear history")
	}
}

func TestConsistencyAssertion(t *testing.T) {
	a := Consistency("C", "c", "c", Info,
		func(f *Frame) (float64, bool) { return f.GNSSSpeed, f.GNSSValid },
		func(f *Frame) (float64, bool) { return f.OdomSpeed, true },
		nil, 1.0)
	f := frameAt(0)
	f.GNSSSpeed, f.OdomSpeed = 5, 5.5
	if out := eval(a, f); !out.OK {
		t.Error("0.5 diff within tol 1 should pass")
	}
	f.OdomSpeed = 7
	if out := eval(a, f); out.OK {
		t.Error("2.0 diff should fail")
	}
	f.GNSSValid = false
	if out := eval(a, f); !out.Skip {
		t.Error("inapplicable extractor should skip")
	}
}

func TestWindowCountAssertion(t *testing.T) {
	a := WindowCount("W", "w", "w", Info,
		func(f *Frame) (bool, bool) { return f.CmdSteer > 0, true }, 1.0, 2)
	step := func(t0, steer float64) Outcome {
		f := frameAt(t0)
		f.CmdSteer = steer
		return eval(a, f)
	}
	step(0.0, 1)
	step(0.1, 1)
	if out := step(0.2, 1); out.OK {
		t.Error("3 events in 1 s window should exceed max 2")
	}
	// After the window slides past the burst, the count drops.
	if out := step(1.5, 0); !out.OK {
		t.Errorf("old events should be evicted: %+v", out)
	}
}

func TestMonitorDeterminismProperty(t *testing.T) {
	mk := func() *Monitor {
		return NewMonitor().Add(failWhen(), Debounce{K: 2, N: 3})
	}
	f := func(ctes []float64) bool {
		if len(ctes) == 0 {
			return true
		}
		a, b := mk(), mk()
		for i, c := range ctes {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				c = 0
			}
			fr := frameAt(float64(i) * 0.05)
			fr.CTE = c
			a.Step(fr)
			b.Step(fr)
		}
		va, vb := a.Violations(), b.Violations()
		if len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i].T != vb[i].T || va[i].AssertionID != vb[i].AssertionID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewAssertionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty id should panic")
		}
	}()
	NewAssertion("", "x", "x", Info, func(f *Frame, o *Outcome) { o.OK = true }, nil)
}
