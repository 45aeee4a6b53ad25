package harness

import (
	"bytes"
	"flag"
	"strconv"
	"strings"
	"testing"

	"adassure/internal/attacks"
)

var shapeSeeds = flag.Int("shape-seeds", 1,
	"seeds per configuration in the Test…Shape… claims (the shape ledger in EXPERIMENTS.md runs 5)")

func quick() Options { return Options{Quick: true, Seeds: *shapeSeeds} }

// cell returns the table cell at (row, col name).
func cell(t *testing.T, tb *Table, row int, col string) string {
	t.Helper()
	for i, c := range tb.Columns {
		if c == col {
			if row >= len(tb.Rows) || i >= len(tb.Rows[row]) {
				t.Fatalf("%s: cell (%d, %s) out of range", tb.ID, row, col)
			}
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q in %v", tb.ID, col, tb.Columns)
	return ""
}

// rowByFirst returns the row whose first cell equals key.
func rowByFirst(t *testing.T, tb *Table, key string) int {
	t.Helper()
	for i, r := range tb.Rows {
		if len(r) > 0 && r[0] == key {
			return i
		}
	}
	t.Fatalf("%s: no row %q", tb.ID, key)
	return -1
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "×"), "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// frac parses a "k/n" cell (k of n seeds) into its counts.
func frac(t *testing.T, s string) (k, n int) {
	t.Helper()
	a, b, ok := strings.Cut(s, "/")
	k, err1 := strconv.Atoi(a)
	n, err2 := strconv.Atoi(b)
	if !ok || err1 != nil || err2 != nil || n <= 0 || k < 0 || k > n {
		t.Fatalf("parse %q as k/n", s)
	}
	return k, n
}

// allSeeds reports whether a "k/n" cell counts every seed.
func allSeeds(t *testing.T, s string) bool {
	k, n := frac(t, s)
	return k == n
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID: "TX", Title: "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TX — demo", "a    long-column", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(all))
	}
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "F1", "F2", "F3", "F4", "F5", "F6", "X1", "X2", "X3", "X4", "X5", "M1", "S1"}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, err := ByID("t2"); err != nil {
		t.Error("ByID should be case-insensitive")
	}
	if _, err := ByID("T9"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestGridCellsRunDefaultWindow: every experiment cell, standard or
// sized, attacks over attacks' default window, the one a façade scenario
// that names none gets (TestScenarioCanonicalize).
func TestGridCellsRunDefaultWindow(t *testing.T) {
	want := attacks.Window{Start: attacks.DefaultOnset, End: attacks.DefaultEnd}
	for _, c := range []gridCell{
		{class: attacks.ClassStepSpoof, seed: 1},
		{class: attacks.ClassDriftSpoof, size: 2, seed: 1},
		{class: attacks.ClassStepSpoof, size: 3, seed: 1},
	} {
		camp, err := c.campaign()
		if err != nil {
			t.Fatal(err)
		}
		if got := camp.GNSS.Window(); got != want {
			t.Errorf("%s: window %+v, want %+v", c.name(), got, want)
		}
	}
}

func TestT1ShapeDetectionMatrix(t *testing.T) {
	tb, err := Table1DetectionMatrix(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("T1 rows = %d, want 12 attack classes", len(tb.Rows))
	}
	// Every attack row must have at least one X (everything is detected).
	for _, row := range tb.Rows {
		found := false
		for _, c := range row[1:] {
			if c == "X" {
				found = true
			}
		}
		if !found {
			t.Errorf("T1: attack %s has no detecting assertion", row[0])
		}
	}
	// The drift row must include A13 — the headline detector.
	r := rowByFirst(t, tb, "gnss-drift-spoof")
	if cell(t, tb, r, "A13") != "X" {
		t.Error("T1: drift spoof not detected by A13")
	}
	// Dropout must include A5.
	r = rowByFirst(t, tb, "gnss-dropout")
	if cell(t, tb, r, "A5") != "X" {
		t.Error("T1: dropout not detected by A5")
	}
}

func TestT2ShapeLatencyOrdering(t *testing.T) {
	tb, err := Table2DetectionLatency(quick())
	if err != nil {
		t.Fatal(err)
	}
	lat := func(attack string) float64 {
		return parseF(t, cell(t, tb, rowByFirst(t, tb, attack), "mean latency (s)"))
	}
	step := lat("gnss-step-spoof")
	drift := lat("gnss-drift-spoof")
	freeze := lat("gnss-freeze")
	if !(step < freeze && freeze < drift) {
		t.Errorf("T2 latency ordering violated: step=%.2f freeze=%.2f drift=%.2f", step, freeze, drift)
	}
	if step > 0.5 {
		t.Errorf("T2: step latency %.2f s too slow", step)
	}
	if drift < 2 {
		t.Errorf("T2: drift latency %.2f s implausibly fast", drift)
	}
	// All classes detected.
	for _, row := range tb.Rows {
		if det := cell(t, tb, rowByFirst(t, tb, row[0]), "detected"); !allSeeds(t, det) {
			t.Errorf("T2: %s detected = %s", row[0], det)
		}
	}
}

func TestT3ShapeCleanHasNoFalsePositives(t *testing.T) {
	tb, err := Table3DetectionRates(quick())
	if err != nil {
		t.Fatal(err)
	}
	r := rowByFirst(t, tb, "none")
	if fp := parseF(t, cell(t, tb, r, "FP/run (pre-onset)")); fp != 0 {
		t.Errorf("T3: clean FP/run = %g, want 0", fp)
	}
	for _, row := range tb.Rows[1:] {
		if rate := cell(t, tb, rowByFirst(t, tb, row[0]), "detection rate"); rate != "100%" {
			t.Errorf("T3: %s rate = %s", row[0], rate)
		}
	}
}

func TestT6ShapeGuardImproves(t *testing.T) {
	tb, err := Table6DebugLoop(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, attack := range []string{"gnss-step-spoof", "gnss-drift-spoof", "gnss-freeze", "gnss-replay"} {
		r := rowByFirst(t, tb, attack)
		imp := parseF(t, cell(t, tb, r, "improvement"))
		if imp < 1.5 {
			t.Errorf("T6: %s improvement %.1f× below 1.5×", attack, imp)
		}
	}
}

func TestF1ShapeSilentFailure(t *testing.T) {
	tb, err := Figure1CrossTrackSeries(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Mid-attack (t ≈ 30-35 s) the true CTE must be large while the
	// believed CTE stays small.
	var worstTrue, worstBelievedMidAttack float64
	for i := range tb.Rows {
		ts := parseF(t, cell(t, tb, i, "t (s)"))
		if ts < 28 || ts > 38 {
			continue
		}
		tc := parseF(t, cell(t, tb, i, "true CTE (m)"))
		bc := parseF(t, cell(t, tb, i, "believed CTE (m)"))
		if a := abs(tc); a > worstTrue {
			worstTrue = a
		}
		if a := abs(bc); a > worstBelievedMidAttack {
			worstBelievedMidAttack = a
		}
	}
	if worstTrue < 3 {
		t.Errorf("F1: true CTE only %.2f m mid-attack", worstTrue)
	}
	if worstBelievedMidAttack > 1.0 {
		t.Errorf("F1: believed CTE %.2f m mid-attack — should stay near zero", worstBelievedMidAttack)
	}
}

func TestF4ShapeOverheadGrowsWithCatalog(t *testing.T) {
	tb, err := Figure4MonitorOverhead(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("F4 rows = %d", len(tb.Rows))
	}
	prev := -1.0
	for i := range tb.Rows {
		ns := parseF(t, cell(t, tb, i, "ns/frame"))
		if ns < prev*0.5 { // allow jitter but not inversion
			t.Errorf("F4: overhead not growing: row %d = %g ns after %g", i, ns, prev)
		}
		prev = ns
	}
	// Full catalog must stay far below the 50 ms control budget.
	full := parseF(t, cell(t, tb, len(tb.Rows)-1, "ns/frame"))
	if full > 1e6 {
		t.Errorf("F4: full catalog %g ns/frame exceeds 1 ms", full)
	}
}

func TestF5ShapeThresholdTradeoff(t *testing.T) {
	tb, err := Figure5ThresholdAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Tightest scale has more FPs than scale 1; scale 1 has none.
	tight := parseF(t, cell(t, tb, rowByFirst(t, tb, "0.50"), "FP/run (clean)"))
	nominal := parseF(t, cell(t, tb, rowByFirst(t, tb, "1.00"), "FP/run (clean)"))
	if tight <= nominal {
		t.Errorf("F5: FP(0.5)=%g should exceed FP(1.0)=%g", tight, nominal)
	}
	if nominal != 0 {
		t.Errorf("F5: FP at scale 1 = %g, want 0", nominal)
	}
	// Latency grows with scale.
	latTight := parseF(t, cell(t, tb, rowByFirst(t, tb, "0.50"), "drift latency (s)"))
	latLoose := parseF(t, cell(t, tb, rowByFirst(t, tb, "1.50"), "drift latency (s)"))
	if latTight >= latLoose {
		t.Errorf("F5: latency should grow with scale: %.2f vs %.2f", latTight, latLoose)
	}
}

func TestF6ShapeDebounceTradeoff(t *testing.T) {
	tb, err := Figure6DebounceAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Step latency grows with window size.
	lat1 := parseF(t, cell(t, tb, rowByFirst(t, tb, "1-of-1"), "step latency (s)"))
	lat8 := parseF(t, cell(t, tb, rowByFirst(t, tb, "6-of-8"), "step latency (s)"))
	if lat1 > lat8 {
		t.Errorf("F6: latency should grow with window: 1-of-1=%.2f vs 6-of-8=%.2f", lat1, lat8)
	}
	for i := range tb.Rows {
		if det := cell(t, tb, i, "step detected"); !allSeeds(t, det) {
			t.Errorf("F6: row %d step not detected (%s)", i, det)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestT4ShapeDiagnosisAccuracy(t *testing.T) {
	tb, err := Table4DiagnosisAccuracy(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Last row is the overall summary; accuracy must clear the CI bar.
	overall := tb.Rows[len(tb.Rows)-1]
	if overall[0] != "overall" {
		t.Fatalf("last row = %v", overall)
	}
	if top1 := parseF(t, overall[1]); top1 < 80 {
		t.Errorf("T4 overall top-1 %.0f%% below 80%%", top1)
	}
	if top2 := parseF(t, overall[2]); top2 < 95 {
		t.Errorf("T4 overall top-2 %.0f%% below 95%%", top2)
	}
}

func TestT5ShapeControllerComparison(t *testing.T) {
	tb, err := Table5ControllerComparison(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("T5 rows = %d, want 4 controllers", len(tb.Rows))
	}
	for i := range tb.Rows {
		clean := parseF(t, cell(t, tb, i, "clean"))
		drift := parseF(t, cell(t, tb, i, "drift-spoof"))
		if clean > 1.0 {
			t.Errorf("T5: %s clean CTE %.2f m", tb.Rows[i][0], clean)
		}
		// The attack dwarfs clean tracking error for every controller.
		if drift < clean*5 {
			t.Errorf("T5: %s drift CTE %.2f not ≫ clean %.2f", tb.Rows[i][0], drift, clean)
		}
		if v := cell(t, tb, i, "violations (clean)"); v != "0" {
			t.Errorf("T5: %s clean violations = %s", tb.Rows[i][0], v)
		}
	}
}

func TestF2ShapeTrajectoryDrag(t *testing.T) {
	tb, err := Figure2Trajectory(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Mid-attack the estimate must sit ~5 m from the truth in y (the step
	// spoof magnitude), with the GNSS track agreeing with the estimate.
	var checked bool
	for i := range tb.Rows {
		ts := parseF(t, cell(t, tb, i, "t (s)"))
		if ts < 30 || ts > 40 {
			continue
		}
		ty := parseF(t, cell(t, tb, i, "true y"))
		ey := parseF(t, cell(t, tb, i, "est y"))
		gy := parseF(t, cell(t, tb, i, "gnss y"))
		if d := abs(ey - ty); d < 3 || d > 7 {
			t.Errorf("F2 t=%.1f: est-truth gap %.1f m, want ~5", ts, d)
		}
		if d := abs(ey - gy); d > 1.5 {
			t.Errorf("F2 t=%.1f: est should follow the spoofed GNSS (gap %.1f)", ts, d)
		}
		checked = true
	}
	if !checked {
		t.Error("F2: no mid-attack rows found")
	}
}

func TestF3ShapeLatencyCDF(t *testing.T) {
	tb, err := Figure3LatencyCDF(quick())
	if err != nil {
		t.Fatal(err)
	}
	// CDF fractions must be non-decreasing per attack and end at 1.0.
	last := map[string]float64{}
	final := map[string]float64{}
	for i := range tb.Rows {
		name := tb.Rows[i][0]
		frac := parseF(t, cell(t, tb, i, "CDF"))
		if frac+1e-9 < last[name] {
			t.Errorf("F3: %s CDF decreasing", name)
		}
		last[name] = frac
		final[name] = frac
	}
	for name, f := range final {
		if f < 0.999 {
			t.Errorf("F3: %s CDF ends at %.2f, want 1.0", name, f)
		}
	}
	// Step saturates faster than drift: compare the max latency values.
	var stepMax, driftMax float64
	for i := range tb.Rows {
		lat := parseF(t, cell(t, tb, i, "latency (s)"))
		switch tb.Rows[i][0] {
		case "step-spoof":
			if lat > stepMax {
				stepMax = lat
			}
		case "drift-spoof":
			if lat > driftMax {
				driftMax = lat
			}
		}
	}
	if stepMax >= driftMax {
		t.Errorf("F3: step max latency %.2f should be below drift %.2f", stepMax, driftMax)
	}
}
