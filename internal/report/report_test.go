package report

import (
	"bytes"
	"strings"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/sim"
	"adassure/internal/track"
)

func attackedRun(t *testing.T) (*sim.Result, []core.Violation) {
	t.Helper()
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attacks.Standard(attacks.ClassFreeze, attacks.Window{Start: 20, End: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
	res, err := sim.Run(sim.Config{
		Track: tr, Controller: "pure-pursuit", Seed: 1, Duration: 60,
		Campaign: camp, Monitor: mon, RecordFrames: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, mon.Violations()
}

func TestWriteFullReport(t *testing.T) {
	res, vs := attackedRun(t)
	var buf bytes.Buffer
	err := Write(&buf, Input{
		Title:       "freeze attack investigation",
		Scenario:    map[string]string{"track": "urban-loop", "attack": "gnss-freeze", "seed": "1"},
		Result:      res,
		Violations:  vs,
		AttackOnset: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# freeze attack investigation",
		"## Scenario",
		"| track | urban-loop |",
		"## Run summary",
		"## Detection",
		"detected by **A10**",
		"## Violation timeline",
		"## Root-cause diagnosis",
		"**gnss-freeze**",
		"## Signal summary",
		"| cte_true |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWriteCleanReport(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Track: tr, Controller: "lqr-mpc", Seed: 1, Duration: 20, RecordFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, Input{Result: res, AttackOnset: -1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "nominal run") {
		t.Error("clean report should state nominal")
	}
	if strings.Contains(out, "## Detection") {
		t.Error("clean report should omit the detection block")
	}
	if !strings.Contains(out, "# ADAssure run report") {
		t.Error("default title missing")
	}
}

func TestWriteValidation(t *testing.T) {
	if err := Write(&bytes.Buffer{}, Input{}); err == nil {
		t.Error("nil result accepted")
	}
}

func TestTimelineTruncation(t *testing.T) {
	res, _ := attackedRun(t)
	var many []core.Violation
	for i := 0; i < maxTimelineRows+15; i++ {
		many = append(many, core.Violation{AssertionID: "A1", Name: "position-jump", T: float64(i), Duration: 0.1})
	}
	var buf bytes.Buffer
	if err := Write(&buf, Input{Result: res, Violations: many, AttackOnset: -1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "15 further episodes omitted") {
		t.Error("long timeline not truncated")
	}
}

func TestEvidenceSummary(t *testing.T) {
	if got := evidenceSummary(nil); got != "-" {
		t.Errorf("empty evidence = %q", got)
	}
	got := evidenceSummary(map[string]float64{"b": 2, "a": 1, "c": 3, "d": 4})
	if !strings.HasPrefix(got, "a=1, b=2, c=3") {
		t.Errorf("evidence summary = %q (want sorted, capped at 3)", got)
	}
}

func TestWriteCompare(t *testing.T) {
	before, beforeViol := attackedRun(t)
	// Guarded re-run of the same scenario.
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attacks.Standard(attacks.ClassFreeze, attacks.Window{Start: 20, End: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
	after, err := sim.Run(sim.Config{
		Track: tr, Controller: "pure-pursuit", Seed: 1, Duration: 60,
		Campaign: camp, Monitor: mon,
		Guard: sim.GuardConfig{Enabled: true, AssertionTrigger: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = WriteCompare(&buf, CompareInput{
		Title:       "freeze: unguarded vs guarded",
		BeforeLabel: "unguarded", AfterLabel: "guarded",
		Before: before, After: after,
		BeforeViol: beforeViol, AfterViol: mon.Violations(),
		AttackOnset: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# freeze: unguarded vs guarded",
		"| max |true CTE|",
		"better",
		"fallback time",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare report missing %q:\n%s", want, out)
		}
	}
	if err := WriteCompare(&buf, CompareInput{}); err == nil {
		t.Error("nil results accepted")
	}
}
