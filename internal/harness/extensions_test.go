package harness

import (
	"strings"
	"testing"
)

func TestX1ShapeGuardAblation(t *testing.T) {
	tb, err := ExtensionX1GuardAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string) float64 { return parseF(t, cell(t, tb, rowByFirst(t, tb, name), "step-spoof")) }
	drift := func(name string) float64 { return parseF(t, cell(t, tb, rowByFirst(t, tb, name), "drift-spoof")) }

	// The gate alone contains the step spoof but not the drift.
	if step("gate only") > step("none (unguarded)")*0.3 {
		t.Errorf("X1: gate only should contain the step spoof: %.2f vs %.2f",
			step("gate only"), step("none (unguarded)"))
	}
	if drift("gate only") < drift("none (unguarded)")*0.7 {
		t.Errorf("X1: gate only should NOT contain the drift: %.2f vs %.2f",
			drift("gate only"), drift("none (unguarded)"))
	}
	// Only the assertion trigger contains the drift.
	if drift("assertion only") > drift("none (unguarded)")*0.5 {
		t.Errorf("X1: assertion trigger should contain the drift: %.2f vs %.2f",
			drift("assertion only"), drift("none (unguarded)"))
	}
	// The full guard is at least as good as each component on both attacks.
	if step("full guard") > step("gate only")+0.5 || drift("full guard") > drift("assertion only")+0.5 {
		t.Errorf("X1: full guard worse than its components (step %.2f, drift %.2f)",
			step("full guard"), drift("full guard"))
	}
}

func TestX2ShapeDriftRateCrossover(t *testing.T) {
	tb, err := ExtensionX2DriftRateSweep(quick())
	if err != nil {
		t.Fatal(err)
	}
	lat := func(rate string) float64 { return parseF(t, cell(t, tb, rowByFirst(t, tb, rate), "mean latency (s)")) }
	// Latency monotone non-increasing in rate across the decisive range.
	if !(lat("0.50") > lat("2.00") && lat("2.00") >= lat("4.00")) {
		t.Errorf("X2: latency should fall with drift rate: 0.5→%.2f 2.0→%.2f 4.0→%.2f",
			lat("0.50"), lat("2.00"), lat("4.00"))
	}
	// Detector crossover: slow drift caught by a heading/ground-truth
	// cross-check, fast drift by the innovation/jump detectors.
	slowBy := cell(t, tb, rowByFirst(t, tb, "0.50"), "first assertion")
	fastBy := cell(t, tb, rowByFirst(t, tb, "4.00"), "first assertion")
	if slowBy != "A13" && slowBy != "A12" {
		t.Errorf("X2: slow drift first detector = %s, want A13/A12", slowBy)
	}
	if fastBy != "A10" && fastBy != "A1" {
		t.Errorf("X2: fast drift first detector = %s, want A10/A1", fastBy)
	}
	// Everything detected.
	for i := range tb.Rows {
		if det := cell(t, tb, i, "detected"); !allSeeds(t, det) {
			t.Errorf("X2: row %d undetected (%s)", i, det)
		}
	}
}

func TestX4ShapeAssertionUtility(t *testing.T) {
	tb, err := ExtensionX4AssertionUtility(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Zero false positives anywhere on the corpus.
	for i := range tb.Rows {
		if fp := cell(t, tb, i, "FPs"); fp != "0" {
			t.Errorf("X4: %s has %s false positives", tb.Rows[i][0], fp)
		}
	}
	// The staleness and jump detectors must be among the first detectors.
	firsts := map[string]float64{}
	for i := range tb.Rows {
		firsts[tb.Rows[i][0]] = parseF(t, cell(t, tb, i, "first detector"))
	}
	if firsts["A1"] == 0 || firsts["A5"] == 0 {
		t.Errorf("X4: A1/A5 carry no first-detector weight: %v", firsts)
	}
	// The controller-weakness assertions stay silent on a channel-attack
	// corpus — reported as a note, not as table rows.
	joined := strings.Join(tb.Notes, " ")
	for _, id := range []string{"A6", "A8", "A11"} {
		if _, present := firsts[id]; present {
			continue // acceptable: they may fire on some seeds
		}
		if !strings.Contains(joined, id) {
			t.Errorf("X4: silent assertion %s not reported in notes", id)
		}
	}
}

func TestX5ShapeFusionAblation(t *testing.T) {
	tb, err := ExtensionX5FusionAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	ekf := rowByFirst(t, tb, "ekf")
	comp := rowByFirst(t, tb, "complementary")
	// Both localizers: zero clean violations and instant step detection.
	for _, r := range []int{ekf, comp} {
		if cv := cell(t, tb, r, "clean violations"); cv != "0" {
			t.Errorf("X5: %s clean violations = %s", tb.Rows[r][0], cv)
		}
		if lat := parseF(t, cell(t, tb, r, "step latency (s)")); lat > 0.5 {
			t.Errorf("X5: %s step latency %.2f s", tb.Rows[r][0], lat)
		}
	}
	// The EKF tracks at least as cleanly as the fixed-gain filter.
	if parseF(t, cell(t, tb, ekf, "clean RMS CTE (m)")) > parseF(t, cell(t, tb, comp, "clean RMS CTE (m)"))+0.02 {
		t.Error("X5: EKF should not track worse than the complementary filter")
	}
	// Drift stays detected under both (by A13 online for the EKF, by the
	// safety envelope for the complementary filter).
	for _, r := range []int{ekf, comp} {
		if lat := parseF(t, cell(t, tb, r, "drift latency (s)")); lat <= 0 || lat > 15 {
			t.Errorf("X5: %s drift latency %.2f s", tb.Rows[r][0], lat)
		}
	}
}

func TestX3ShapeDetectionFloor(t *testing.T) {
	tb, err := ExtensionX3StepMagnitudeSweep(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Sub-noise steps are undetected; metre-scale and above are caught.
	if det := cell(t, tb, rowByFirst(t, tb, "0.25"), "detected"); !strings.HasPrefix(det, "0/") {
		t.Errorf("X3: 0.25 m step should be below the detection floor, got %s", det)
	}
	for _, mag := range []string{"2.00", "5.00", "10.00"} {
		if det := cell(t, tb, rowByFirst(t, tb, mag), "detected"); strings.HasPrefix(det, "0/") {
			t.Errorf("X3: %s m step undetected", mag)
		}
	}
}
