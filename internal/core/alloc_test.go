package core

import "testing"

// The monitor's steady-state contract is zero heap allocation: evidence is
// carried in the fixed-capacity Evidence value type and only materialised
// to a map when a violation is actually raised. These tests pin that
// contract so a future convenience change (say, reintroducing a map literal
// in an assertion body) fails loudly instead of silently costing ~27
// allocations per control step again.

// TestAssertionEvalAllocs checks every catalog assertion evaluates a
// nominal frame without allocating.
func TestAssertionEvalAllocs(t *testing.T) {
	entries := NewCatalog(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	f := goodFrame(3)
	for _, e := range entries {
		a := e.Assertion
		// Warm any internal state (EMA filters, rate trackers).
		for i := 0; i < 10; i++ {
			eval(a, goodFrame(float64(i)*0.05))
		}
		var out Outcome
		allocs := testing.AllocsPerRun(200, func() {
			out = Outcome{}
			a.Eval(&f, &out)
		})
		if allocs > 0 {
			t.Errorf("%s: Eval allocates %.1f objects/op in steady state, want 0", a.ID(), allocs)
		}
	}
}

// TestMonitorStepAllocs checks a full-catalog monitor step on a clean
// stream (debounce bookkeeping included) allocates nothing.
func TestMonitorStepAllocs(t *testing.T) {
	m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	tt := 0.0
	for i := 0; i < 100; i++ {
		m.Step(goodFrame(tt))
		tt += 0.05
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Step(goodFrame(tt))
		tt += 0.05
	})
	if allocs > 0 {
		t.Errorf("monitor step allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
