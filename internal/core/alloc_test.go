package core

import (
	"sync"
	"testing"

	"adassure/internal/obs"
)

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

// TestMonitorAttachAllocs checks that attaching a fresh monitor to a
// registry that already names its metrics allocates nothing: a service
// attaches every run's monitor to its one registry.
func TestMonitorAttachAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	const runs = 50
	mons := make([]*Monitor, runs+2) // AllocsPerRun adds one warm-up call
	for i := range mons {
		mons[i] = NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	}
	mons[0].Attach(reg)
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		mons[next].Attach(reg)
		next++
	})
	if allocs > 0 {
		t.Errorf("attaching a catalog monitor allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMonitorAttachConcurrent: monitors attached from several goroutines
// at once, as a service's workers attach their runs, share the name
// table safely and resolve the same handles.
func TestMonitorAttachConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true}).Attach(reg)
			}
		}()
	}
	wg.Wait()
	m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true}).Attach(reg)
	for _, e := range m.entries {
		if e.evals != reg.Counter("monitor."+e.a.ID()+".evals") {
			t.Errorf("%s: attached evals counter is not the registry's", e.a.ID())
		}
	}
}
