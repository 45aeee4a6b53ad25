package adassure

import (
	"context"
	"testing"

	"adassure/internal/telemetry"
)

// tracedScenario is the overhead fixture: a spoofed run long enough to
// exercise sim, monitor and diagnosis under a live span.
func tracedScenario(sp *TraceSpan) Scenario {
	return Scenario{Attack: AttackDriftSpoof, Duration: 30, Span: sp}
}

// TestTracedRunSpanBudget pins the instrumentation density: one run emits
// exactly two phase spans (sim+monitor, diagnosis) regardless of how many
// steps or violations it produced — tracing cost is per-run constant,
// never per-step.
func TestTracedRunSpanBudget(t *testing.T) {
	tr := telemetry.New(telemetry.Config{})
	root := tr.StartSpan("test run", "")
	out, err := tracedScenario(root).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if out.Sim.Steps == 0 || len(out.Violations) == 0 {
		t.Fatalf("fixture did not exercise the full path: %d steps, %d violations",
			out.Sim.Steps, len(out.Violations))
	}
	exp, ok := tr.Export(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(exp.Spans) != 3 { // root + phase.sim+monitor + phase.diagnosis
		names := make([]string, 0, len(exp.Spans))
		for _, sp := range exp.Spans {
			names = append(names, sp.Name)
		}
		t.Fatalf("span count %d, want 3 (constant per run); got %v", len(exp.Spans), names)
	}
	byName := map[string]telemetry.SpanExport{}
	for _, sp := range exp.Spans {
		byName[sp.Name] = sp
	}
	if byName["phase.sim+monitor"].Attrs["steps"] == "" {
		t.Error("phase.sim+monitor span missing the steps attribute")
	}
	if byName["phase.diagnosis"].Attrs["hypotheses"] == "" {
		t.Error("phase.diagnosis span missing the hypotheses attribute")
	}
}

// TestTracedRunAllocOverhead bounds the absolute allocation cost of
// attaching a span to a run: the delta over an untraced run must stay a
// small constant (the two phase spans plus their attributes), not scale
// with simulated duration. Absolute counts — not wall-time ratios — keep
// the gate immune to runner noise; the paired benchmarks below supply the
// ns/op evidence for the ≤5% tracing budget of DESIGN.md §15. The metrics
// registry's own ≤5% bound is TestObsOverheadBound's.
func TestTracedRunAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation fixture")
	}
	tr := telemetry.New(telemetry.Config{})
	run := func(sp *TraceSpan) {
		if _, err := tracedScenario(sp).RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	baseline := testing.AllocsPerRun(3, func() { run(nil) })
	traced := testing.AllocsPerRun(3, func() {
		root := tr.StartSpan("bench run", "")
		run(root)
		root.End()
	})
	delta := traced - baseline
	// Root span + 2 phase spans + ~4 attrs each, with headroom for map
	// growth inside the trace store.
	if delta > 64 {
		t.Fatalf("tracing adds %.0f allocs/run (baseline %.0f), budget 64", delta, baseline)
	}
}

// BenchmarkScenarioUntraced and BenchmarkScenarioTraced are the committed
// overhead evidence pair: same spoofed run, with and without an attached
// span. DESIGN.md §15 records the measured delta.
func BenchmarkScenarioUntraced(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tracedScenario(nil).RunContext(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioTraced(b *testing.B) {
	tr := telemetry.New(telemetry.Config{})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.StartSpan("bench run", "")
		if _, err := tracedScenario(root).RunContext(ctx); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}
