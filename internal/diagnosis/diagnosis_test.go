package diagnosis

import (
	"math"
	"strings"
	"testing"

	"adassure/internal/core"
)

func v(id string, t, dur float64) core.Violation {
	return core.Violation{AssertionID: id, Name: id, Severity: core.Warning, T: t, FirstBreach: t, Duration: dur}
}

func TestExtractSignature(t *testing.T) {
	vs := []core.Violation{
		v("A5", 20.5, 30),
		v("A4", 21.0, 2),
		v("A5", 55.0, 1),
	}
	sig := Extract(vs)
	if sig.Total != 3 {
		t.Errorf("total = %d", sig.Total)
	}
	if sig.Episodes["A5"] != 2 || sig.Episodes["A4"] != 1 {
		t.Errorf("episodes = %v", sig.Episodes)
	}
	if sig.FirstID != "A5" || sig.FirstT != 20.5 {
		t.Errorf("first = %s@%g", sig.FirstID, sig.FirstT)
	}
	if len(sig.Order) != 2 || sig.Order[0] != "A5" || sig.Order[1] != "A4" {
		t.Errorf("order = %v", sig.Order)
	}
	if sig.MaxDuration["A5"] != 30 {
		t.Errorf("max duration A5 = %g", sig.MaxDuration["A5"])
	}
}

func TestExtractOpenEpisodeIsInfinite(t *testing.T) {
	sig := Extract([]core.Violation{v("A5", 10, 0)})
	if !math.IsInf(sig.MaxDuration["A5"], 1) {
		t.Errorf("open episode duration = %g, want +Inf", sig.MaxDuration["A5"])
	}
}

func TestDiagnoseEmptyIsNone(t *testing.T) {
	hyps := Diagnose(nil)
	if len(hyps) != 1 || hyps[0].Cause != CauseNone || hyps[0].Confidence != 1 {
		t.Errorf("empty diagnosis = %+v", hyps)
	}
}

func TestDiagnoseSyntheticSignatures(t *testing.T) {
	cases := []struct {
		name string
		vs   []core.Violation
		want Cause
	}{
		{
			name: "step spoof: A1 first with innovation and lane breach",
			vs: []core.Violation{
				v("A1", 20.05, 0.3), v("A10", 20.1, 1), v("A2", 20.3, 2),
				v("A13", 20.8, 1), v("A4", 20.2, 1),
			},
			want: CauseStepSpoof,
		},
		{
			name: "drift: A13 first, late, no jumps",
			vs: []core.Violation{
				v("A13", 26.5, 10), v("A2", 29, 5), v("A12", 28, 8),
			},
			want: CauseDriftSpoof,
		},
		{
			name: "replay: progress regression dominates",
			vs: []core.Violation{
				v("A1", 20.05, 0.2), v("A9", 20.1, 0.1), v("A9", 21.2, 0.1),
				v("A9", 22.4, 0.1), v("A10", 20.2, 3),
			},
			want: CauseReplay,
		},
		{
			name: "freeze: speed collapse plus one sustained innovation episode",
			vs: []core.Violation{
				v("A10", 20.2, 25), v("A4", 20.5, 25), v("A12", 30, 10),
			},
			want: CauseFreeze,
		},
		{
			name: "dropout: one long silence",
			vs:   []core.Violation{v("A5", 20.55, 30), v("A3", 51, 1), v("A4", 51, 1)},
			want: CauseDropout,
		},
		{
			name: "delay: brief silence then repeated disagreement",
			vs: []core.Violation{
				v("A5", 20.55, 1.2), v("A10", 21.5, 1), v("A10", 23, 1), v("A10", 25, 1),
				v("A10", 27, 1), v("A9", 22, 0.3), v("A2", 24, 2),
			},
			want: CauseDelay,
		},
		{
			name: "noise: many scattered jumps",
			vs: []core.Violation{
				v("A1", 20.05, 0.1), v("A1", 20.6, 0.1), v("A1", 21.3, 0.1), v("A1", 22.0, 0.1),
				v("A1", 23.1, 0.1), v("A4", 20.5, 10), v("A10", 20.3, 0.5),
			},
			want: CauseNoiseInflation,
		},
		{
			name: "imu heading bias: heading channels only",
			vs:   []core.Violation{v("A13", 20.6, 5), v("A3", 21, 25), v("A3", 30, 5)},
			want: CauseIMUHeadingBias,
		},
		{
			name: "odom scale: speed disagreement with repeated filter tugging",
			vs: []core.Violation{
				v("A4", 20.15, 25), v("A10", 21, 0.5), v("A10", 22, 0.5), v("A10", 23, 0.5),
				v("A10", 24, 0.5), v("A10", 25, 0.5), v("A10", 26, 0.5),
			},
			want: CauseOdomScale,
		},
		{
			name: "controller oscillation: A11 alone",
			vs:   []core.Violation{v("A11", 30, 2), v("A11", 35, 2), v("A11", 42, 1)},
			want: CauseCtrlOscillation,
		},
		{
			name: "controller tracking: A2 with clean sensors",
			vs:   []core.Violation{v("A2", 25, 4), v("A6", 25.5, 3), v("A12", 26, 4)},
			want: CauseCtrlTracking,
		},
	}
	for _, c := range cases {
		hyps := Diagnose(c.vs)
		if hyps[0].Cause != c.want {
			t.Errorf("%s: top-1 = %s (%.0f%%), want %s", c.name, hyps[0].Cause, hyps[0].Confidence*100, c.want)
		}
	}
}

func TestDiagnoseConfidencesNormalised(t *testing.T) {
	hyps := Diagnose([]core.Violation{v("A1", 20, 1), v("A10", 20.1, 1)})
	var sum float64
	for _, h := range hyps {
		if h.Confidence < 0 || h.Confidence > 1 {
			t.Errorf("confidence %g out of range", h.Confidence)
		}
		sum += h.Confidence
	}
	if sum > 1.0001 {
		t.Errorf("confidences sum to %g > 1", sum)
	}
	// Ranked descending.
	for i := 1; i < len(hyps); i++ {
		if hyps[i].Confidence > hyps[i-1].Confidence+1e-12 {
			t.Error("hypotheses not sorted by confidence")
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := Report(nil, 3)
	if !strings.Contains(r, "nominal") {
		t.Error("empty report should say nominal")
	}
	vs := []core.Violation{v("A5", 20.55, 30), v("A4", 51, 1)}
	r = Report(vs, 3)
	for _, want := range []string{"A5", "Ranked root-cause", "gnss-dropout", "Signature"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q:\n%s", want, r)
		}
	}
	// Long records are truncated.
	var many []core.Violation
	for i := 0; i < 50; i++ {
		many = append(many, v("A1", float64(i), 0.1))
	}
	r = Report(many, 2)
	if !strings.Contains(r, "more") {
		t.Error("long report should truncate the timeline")
	}
}

// TestRuleScoreFixedOrder: weights that are not multiples of a power of
// two give a sum that depends on its order, so a rule must add its terms
// in one order — catalog order — whatever order its clauses were written
// in. 200 evaluations give identical bits, equal to the ordered sum.
func TestRuleScoreFixedOrder(t *testing.T) {
	r := rule{
		present: terms(map[string]float64{"A13": 0.2, "A2": 0.2, "A10": 0.1, "A1": 0.1, "A15": 0.3, "A3": 0.3}),
		absent:  terms(map[string]float64{"A11": 0.2, "A5": 0.1, "A4": 0.3}),
	}
	sig := Signature{Episodes: map[string]int{}}
	for _, id := range []string{"A1", "A2", "A3", "A4", "A5", "A10", "A11", "A13", "A15"} {
		sig.Episodes[id] = 1
	}
	var want float64
	for _, w := range []float64{0.1, 0.2, 0.3, 0.1, 0.2, 0.3} { // A1 A2 A3 A10 A13 A15
		want += w
	}
	for _, w := range []float64{0.3, 0.1, 0.2} { // A4 A5 A11
		want -= w
	}
	for i := 0; i < 200; i++ {
		if got := r.score(sig); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("evaluation %d: score %v (%#x), want the catalog-ordered sum %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
