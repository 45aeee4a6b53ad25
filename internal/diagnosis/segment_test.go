package diagnosis

import (
	"strings"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/geom"
	"adassure/internal/sim"
	"adassure/internal/track"
)

func TestSegmentizeEmpty(t *testing.T) {
	if segs := Segmentize(nil, SegmentOptions{}); segs != nil {
		t.Errorf("empty record produced segments: %v", segs)
	}
}

func TestSegmentizeSplitsOnQuietGap(t *testing.T) {
	vs := []core.Violation{
		v("A1", 20.0, 0.3),
		v("A10", 20.2, 1.0),
		// 15 s quiet gap.
		v("A5", 36.5, 8),
		v("A4", 37.0, 7),
	}
	segs := Segmentize(vs, SegmentOptions{QuietGap: 5})
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if len(segs[0].Violations) != 2 || len(segs[1].Violations) != 2 {
		t.Errorf("segment sizes %d/%d", len(segs[0].Violations), len(segs[1].Violations))
	}
	if segs[0].Start != 20.0 || segs[1].Start != 36.5 {
		t.Errorf("segment starts %g/%g", segs[0].Start, segs[1].Start)
	}
	// Episode durations extend the segment end.
	if segs[1].End < 44 {
		t.Errorf("segment 2 end %g should include the 8 s A5 episode", segs[1].End)
	}
	// Each segment carries its own diagnosis.
	if len(segs[0].Hypotheses) == 0 || len(segs[1].Hypotheses) == 0 {
		t.Fatal("segments missing hypotheses")
	}
}

func TestSegmentizeMergesWithinGap(t *testing.T) {
	vs := []core.Violation{
		v("A1", 20, 0.3),
		v("A2", 23, 2),
		v("A10", 26, 1),
	}
	if segs := Segmentize(vs, SegmentOptions{QuietGap: 5}); len(segs) != 1 {
		t.Errorf("contiguous violations split into %d segments", len(segs))
	}
}

// TestSegmentizeTwoAttackDrive runs a real drive with a sequential
// campaign (step spoof, then long dropout) and checks that segmentation
// recovers both incidents with correct per-segment diagnoses.
func TestSegmentizeTwoAttackDrive(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	step, err := attacks.NewStepSpoof(attacks.Window{Start: 20, End: 28}, geom.V(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	drop, err := attacks.NewDropout(attacks.Window{Start: 55, End: 80}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := attacks.NewSequence(step, drop)
	if err != nil {
		t.Fatal(err)
	}
	mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
	if _, err := sim.Run(sim.Config{
		Track: tr, Controller: "pure-pursuit", Seed: 1, Duration: 95,
		Campaign: attacks.Campaign{GNSS: seq}, Monitor: mon,
	}); err != nil {
		t.Fatal(err)
	}
	segs := Segmentize(mon.Violations(), SegmentOptions{QuietGap: 8})
	if len(segs) < 2 {
		t.Fatalf("found %d segments, want >= 2 (violations: %d)", len(segs), len(mon.Violations()))
	}
	// First incident diagnosed as the step spoof, a later one as dropout.
	if got := segs[0].Hypotheses[0].Cause; got != CauseStepSpoof {
		t.Errorf("incident 1 diagnosed as %s, want step spoof", got)
	}
	foundDropout := false
	for _, s := range segs[1:] {
		if s.Hypotheses[0].Cause == CauseDropout {
			foundDropout = true
		}
	}
	if !foundDropout {
		causes := []Cause{}
		for _, s := range segs[1:] {
			causes = append(causes, s.Hypotheses[0].Cause)
		}
		t.Errorf("no later segment diagnosed as dropout (got %v)", causes)
	}
}

func TestSegmentReport(t *testing.T) {
	if r := SegmentReport(nil, SegmentOptions{}); !strings.Contains(r, "nominal") {
		t.Error("empty report should say nominal")
	}
	vs := []core.Violation{
		v("A1", 20, 0.3),
		v("A5", 40, 10),
	}
	r := SegmentReport(vs, SegmentOptions{QuietGap: 5})
	for _, want := range []string{"2 incident segment(s)", "incident 1", "incident 2", "A1×1", "A5×1", "diagnosis:"} {
		if !strings.Contains(r, want) {
			t.Errorf("segment report missing %q:\n%s", want, r)
		}
	}
}
