package forensics_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"adassure"
	"adassure/internal/core"
	"adassure/internal/forensics"
	"adassure/internal/trace"
)

// attackedRun executes the canonical drift-spoof scenario with trace,
// frames, metrics and a cached result shared across the tests in this file.
var attackedRun = func() func(t *testing.T) *adassure.ScenarioResult {
	var cached *adassure.ScenarioResult
	return func(t *testing.T) *adassure.ScenarioResult {
		t.Helper()
		if cached != nil {
			return cached
		}
		scn := adassure.Scenario{
			Attack:       adassure.AttackDriftSpoof,
			Seed:         1,
			Duration:     55,
			RecordFrames: true,
			RecordTrace:  true,
			Obs:          adassure.NewRegistry(),
		}
		out, err := scn.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Violations) == 0 {
			t.Fatal("attacked run raised no violations")
		}
		cached = out
		return out
	}
}()

// TestBundleWindowContainsViolation is the acceptance criterion: every
// bundle's evidence window provably contains the violation instant — in
// the declared window, in the trace slice's time span and in the frame
// subset.
func TestBundleWindowContainsViolation(t *testing.T) {
	out := attackedRun(t)
	bundles := out.ForensicBundles(0)
	if len(bundles) != len(out.Violations) {
		t.Fatalf("got %d bundles for %d violations", len(bundles), len(out.Violations))
	}
	for _, b := range bundles {
		v := b.Violation
		if !b.Window.Contains(v.T) {
			t.Errorf("bundle %d: window [%.2f, %.2f] misses raise t=%.2f", b.Index, b.Window.T0, b.Window.T1, v.T)
		}
		if v.FirstBreach >= 0 && !b.Window.Contains(v.FirstBreach) {
			t.Errorf("bundle %d: window misses first breach t=%.2f", b.Index, v.FirstBreach)
		}
		if b.Trace == nil {
			t.Fatalf("bundle %d: no trace slice", b.Index)
		}
		// The trace slice must cover the raise instant: some signal sample
		// at or after it, and one at or before it.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, sig := range b.Trace.Signals() {
			st := b.Trace.SignalStats(sig)
			if st.Count == 0 {
				continue
			}
			for _, s := range b.Trace.Samples(sig) {
				if s.T < lo {
					lo = s.T
				}
				if s.T > hi {
					hi = s.T
				}
			}
		}
		if !(lo <= v.T && v.T <= hi) {
			t.Errorf("bundle %d: trace span [%.2f, %.2f] does not contain violation t=%.2f", b.Index, lo, hi, v.T)
		}
		if len(b.Frames) == 0 {
			t.Errorf("bundle %d: no frames in window", b.Index)
		}
		for _, f := range b.Frames {
			if !b.Window.Contains(f.T) {
				t.Errorf("bundle %d: frame t=%.2f outside window", b.Index, f.T)
			}
		}
		if b.Attack == nil {
			t.Fatalf("bundle %d: attack info missing on attacked run", b.Index)
		}
		// Every frame of the run is finite, so each assertion judged each
		// one; the counter is exact although eval timing is sampled.
		if b.EvalHistory == nil || b.EvalHistory.Evals != int64(len(out.Sim.Frames)) {
			t.Errorf("bundle %d: eval history %+v, want %d evals", b.Index, b.EvalHistory, len(out.Sim.Frames))
		}
		if len(b.Hypotheses) == 0 || len(b.Hypotheses) > 3 {
			t.Errorf("bundle %d: hypotheses count %d, want 1..3", b.Index, len(b.Hypotheses))
		}
	}
}

// TestBundleJSONRoundTrip writes each bundle and reads it back, checking
// the loaded artifact is usable standalone.
func TestBundleJSONRoundTrip(t *testing.T) {
	out := attackedRun(t)
	for _, b := range out.ForensicBundles(0) {
		var buf bytes.Buffer
		if err := b.WriteJSON(&buf); err != nil {
			t.Fatalf("bundle %d: write: %v", b.Index, err)
		}
		got, err := forensics.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("bundle %d: read: %v", b.Index, err)
		}
		if got.Schema != forensics.Schema || got.Index != b.Index {
			t.Fatalf("bundle %d: header mismatch: %+v", b.Index, got)
		}
		if got.Violation.AssertionID != b.Violation.AssertionID || got.Violation.T != b.Violation.T {
			t.Errorf("bundle %d: violation drifted: %+v vs %+v", b.Index, got.Violation, b.Violation)
		}
		if got.Window != b.Window {
			t.Errorf("bundle %d: window drifted", b.Index)
		}
		if len(got.Frames) != len(b.Frames) {
			t.Errorf("bundle %d: frames %d != %d", b.Index, len(got.Frames), len(b.Frames))
		}
		if (got.Trace == nil) != (b.Trace == nil) {
			t.Fatalf("bundle %d: trace presence changed", b.Index)
		}
		if got.Trace != nil {
			if len(got.Trace.Signals()) != len(b.Trace.Signals()) {
				t.Errorf("bundle %d: trace signals %d != %d", b.Index, len(got.Trace.Signals()), len(b.Trace.Signals()))
			}
		}
		// The render must work on the re-read bundle (the offline use case).
		var render bytes.Buffer
		if err := got.Render(&render); err != nil {
			t.Fatalf("bundle %d: render after round trip: %v", b.Index, err)
		}
		if !strings.Contains(render.String(), b.Violation.AssertionID) {
			t.Errorf("bundle %d: render missing assertion ID", b.Index)
		}
	}
}

// TestBundleNoPositionEstimate: a bundle whose frames come from a
// localizer without a position covariance (EstPosStdDev +Inf, as under the
// guard's dead-reckoning fallback) encodes and reads back.
func TestBundleNoPositionEstimate(t *testing.T) {
	b := forensics.Bundle{Schema: forensics.Schema, Frames: []core.Frame{
		{T: 20.1, EstPosStdDev: core.StdDev(math.Inf(1))},
		{T: 20.15, EstPosStdDev: 0.25},
	}}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := forensics.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 2 || got.Frames[0] != b.Frames[0] || got.Frames[1] != b.Frames[1] {
		t.Errorf("frames read back as %+v, want %+v", got.Frames, b.Frames)
	}
}

func TestReadJSONRejectsWrongSchema(t *testing.T) {
	if _, err := forensics.ReadJSON(strings.NewReader(`{"schema":"other/v1"}`)); err == nil {
		t.Fatal("accepted wrong schema")
	}
	if _, err := forensics.ReadJSON(strings.NewReader(`garbage`)); err == nil {
		t.Fatal("accepted non-JSON input")
	}
}

// TestBuildSanitizesEvidence pins the fix for one-sided assertion bounds:
// ±Inf thresholds in the evidence map must not poison the JSON encoding.
func TestBuildSanitizesEvidence(t *testing.T) {
	tr := trace.New()
	tr.Record("x", 1.0, 2.0)
	bundles := forensics.Build(forensics.Input{
		Violations: []core.Violation{{
			AssertionID: "A10", T: 1.0, FirstBreach: 0.9,
			Evidence: map[string]float64{"lo": math.Inf(-1), "hi": 3.5, "bad": math.NaN()},
		}},
		Trace: tr,
	})
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles", len(bundles))
	}
	var buf bytes.Buffer
	if err := bundles[0].WriteJSON(&buf); err != nil {
		t.Fatalf("bundle with infinite evidence failed to encode: %v", err)
	}
	ev := bundles[0].Violation.Evidence
	if ev["lo"] != -math.MaxFloat64 || ev["hi"] != 3.5 {
		t.Errorf("evidence not clamped: %v", ev)
	}
	if _, ok := ev["bad"]; ok {
		t.Errorf("NaN evidence survived: %v", ev)
	}
}

// TestWindowExtendsToFirstBreach checks the window anchors on the raise
// but never cuts off the breach evidence, and is clamped at t=0.
func TestWindowExtendsToFirstBreach(t *testing.T) {
	bundles := forensics.Build(forensics.Input{
		Violations: []core.Violation{
			{AssertionID: "A1", T: 10, FirstBreach: 3},
			{AssertionID: "A2", T: 0.5, FirstBreach: 0.2},
		},
		HalfWindow: 2,
	})
	if got := bundles[0].Window; got.T0 != 3 || got.T1 != 12 {
		t.Errorf("window = [%.1f, %.1f], want [3, 12] (extended to first breach)", got.T0, got.T1)
	}
	if got := bundles[1].Window; got.T0 != 0 || got.T1 != 2.5 {
		t.Errorf("window = [%.1f, %.1f], want [0, 2.5] (clamped at 0)", got.T0, got.T1)
	}
}
