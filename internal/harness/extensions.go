package harness

import (
	"fmt"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/coverage"
	"adassure/internal/metrics"
	"adassure/internal/sim"
)

// ExtensionX1GuardAblation is X1: ablating the guard's components
// (DESIGN.md §6 choice 3) — gate only, staleness only, assertion trigger
// only, and the full stack — against the two attacks that separate them
// (step spoof: gate-detectable; drift spoof: assertion-only).
func ExtensionX1GuardAblation(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:    "X1",
		Title: "Guard-component ablation (mean max |true CTE|, m)",
		Columns: []string{
			"guard configuration", "step-spoof", "drift-spoof",
		},
		Notes: []string{
			"gate = χ² innovation gate + reject-streak fallback; stale = GNSS-silence fallback; assert = assertion-triggered latched fallback",
			"expected shape: the gate alone contains the step spoof but not the drift; only the assertion trigger contains the drift",
		},
	}
	type variant struct {
		name  string
		guard sim.GuardConfig
	}
	variants := []variant{
		{"none (unguarded)", sim.GuardConfig{}},
		// Gate only: disable the staleness trigger by pushing it out of
		// reach, no assertion trigger.
		{"gate only", sim.GuardConfig{Enabled: true, StaleAfter: 1e9}},
		// Staleness only: disable the gate by setting an enormous χ².
		{"staleness only", sim.GuardConfig{Enabled: true, GateThreshold: 1e12}},
		// Assertion trigger only.
		{"assertion only", sim.GuardConfig{Enabled: true, GateThreshold: 1e12, StaleAfter: 1e9, AssertionTrigger: true}},
		{"full guard", sim.GuardConfig{Enabled: true, AssertionTrigger: true}},
	}
	classes := []attacks.Class{attacks.ClassStepSpoof, attacks.ClassDriftSpoof}
	var grid []gridCell
	for _, v := range variants {
		for _, class := range classes {
			grid = append(grid, gridCell{class: class, controller: o.Controller, guard: v.guard})
		}
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		row := []string{v.name}
		for k := range classes {
			var sum float64
			for _, res := range outs[i*len(classes)+k] {
				sum += res.MaxTrueCTE
			}
			row = append(row, fmt.Sprintf("%.2f", sum/float64(o.Seeds)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ExtensionX2DriftRateSweep is X2: detection latency and physical impact
// as a function of the drift rate — locating the crossover where the drift
// becomes fast enough for the jump/innovation detectors to take over from
// A13.
func ExtensionX2DriftRateSweep(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:    "X2",
		Title: "Drift-rate sweep: detection latency and impact vs spoof aggressiveness",
		Columns: []string{
			"drift rate (m/s)", "mean latency (s)", "first assertion", "max |true CTE| (m)", "detected",
		},
		Notes: []string{
			"expected shape: latency falls with rate; the first detector crosses over from A13 (slow) to A10/A1 (fast); impact peaks at intermediate rates (slow enough to evade, fast enough to matter)",
		},
	}
	rates := []float64{0.1, 0.25, 0.5, 1.0, 2.0, 4.0}
	grid := make([]gridCell, len(rates))
	for i, rate := range rates {
		grid[i] = gridCell{class: attacks.ClassDriftSpoof, size: rate, controller: o.Controller}
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for i, rate := range rates {
		ds := detections(outs[i], attacks.DefaultOnset)
		var worst float64
		for _, res := range outs[i] {
			if res.MaxTrueCTE > worst {
				worst = res.MaxTrueCTE
			}
		}
		r := metrics.Aggregate(ds)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%.2f", r.MeanLatency),
			firstDetector(ds),
			fmt.Sprintf("%.2f", worst),
			fmt.Sprintf("%d/%d", r.Detected, r.Runs),
		})
	}
	return t, nil
}

// ExtensionX4AssertionUtility is X4: the assertion-quality analysis — per
// assertion, how much detection weight it carries over the full campaign
// corpus (first-detector counts, label coverage, sole detections, false
// positives), plus dead-assertion and redundancy findings.
func ExtensionX4AssertionUtility(o Options) (*Table, error) {
	o.defaults()
	classes := append([]attacks.Class{attacks.ClassNone}, attacks.StandardClasses()...)
	outs, err := run(o, o.Seeds, classCells(o.Controller, classes...))
	if err != nil {
		return nil, err
	}
	var runs []coverage.Run
	for ci, class := range classes {
		onset := attacks.DefaultOnset
		if class == attacks.ClassNone {
			onset = -1
		}
		for _, res := range outs[ci] {
			runs = append(runs, coverage.Run{Label: string(class), Onset: onset, Violations: res.Violations})
		}
	}
	registered := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true}).AssertionIDs()
	rep, err := coverage.Analyze(runs, registered)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "X4",
		Title: "Assertion-catalog utility over the campaign corpus",
		Columns: []string{
			"assertion", "episodes", "runs fired", "labels", "first detector", "sole detector", "FPs", "mean latency (s)",
		},
		Notes: []string{
			fmt.Sprintf("corpus: %d runs (%d classes + clean, %d seeds)", rep.Runs, len(classes)-1, o.Seeds),
			"expected shape: A1/A5/A10/A13 carry the first-detector weight; zero FPs; controller-weakness assertions (A6/A8/A11) stay silent on this channel-attack corpus",
		},
	}
	for _, s := range rep.PerAssertion {
		t.Rows = append(t.Rows, []string{
			s.ID,
			fmt.Sprintf("%d", s.Episodes),
			fmt.Sprintf("%d", s.RunsFired),
			fmt.Sprintf("%d", s.LabelsCovered),
			fmt.Sprintf("%d", s.FirstDetector),
			fmt.Sprintf("%d", s.SoleDetector),
			fmt.Sprintf("%d", s.FalsePositives),
			fmt.Sprintf("%.2f", s.MeanLatency),
		})
	}
	if len(rep.Dead) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("never fired on this corpus: %v (catalog kept for controller-weakness coverage)", rep.Dead))
	}
	for _, p := range rep.Redundant {
		t.Notes = append(t.Notes, fmt.Sprintf("near-redundant pair: %s ~ %s (jaccard %.2f)", p.A, p.B, p.Jaccard))
	}
	return t, nil
}

// ExtensionX5FusionAblation is X5: the EKF vs fixed-gain complementary
// filter comparison — clean tracking quality and how detection shifts when
// the localizer provides no innovation statistic (A10 unavailable).
func ExtensionX5FusionAblation(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:    "X5",
		Title: "Fusion ablation: EKF vs complementary filter",
		Columns: []string{
			"localizer", "clean RMS CTE (m)", "clean violations",
			"step latency (s)", "step first", "drift latency (s)", "drift first",
		},
		Notes: []string{
			"the complementary filter exposes no χ² innovation, so A10 is inapplicable — detection must come from the redundant cross-checks",
			"expected shape: comparable clean tracking; step detection holds via A1 regardless of localizer",
			"finding: the gated heading blend of the complementary filter is NOT dragged by a drift spoof the way the EKF's cross-covariances are, so A13 loses its online signal — only the offline safety envelope (A12) catches the drift. The EKF's 'weakness' (heading drag) is exactly what makes the drift observable online.",
		},
	}
	locs := sim.Localizers()
	// The clean run measures tracking; the two attacks, detection.
	classes := []attacks.Class{attacks.ClassNone, attacks.ClassStepSpoof, attacks.ClassDriftSpoof}
	var grid []gridCell
	for _, loc := range locs {
		for _, class := range classes {
			grid = append(grid, gridCell{class: class, controller: o.Controller, localizer: loc})
		}
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for i, loc := range locs {
		var rms float64
		var cleanViol int
		for _, res := range outs[i*len(classes)] {
			rms += res.RMSTrueCTE
			cleanViol += len(res.Violations)
		}
		rms /= float64(o.Seeds)
		step := detections(outs[i*len(classes)+1], attacks.DefaultOnset)
		drift := detections(outs[i*len(classes)+2], attacks.DefaultOnset)
		t.Rows = append(t.Rows, []string{
			loc,
			fmt.Sprintf("%.3f", rms),
			fmt.Sprintf("%d", cleanViol),
			fmt.Sprintf("%.2f", metrics.Aggregate(step).MeanLatency),
			firstDetector(step),
			fmt.Sprintf("%.2f", metrics.Aggregate(drift).MeanLatency),
			firstDetector(drift),
		})
	}
	return t, nil
}

// ExtensionX3StepMagnitudeSweep is X3: the detection floor — how small a
// step spoof still gets caught, and by what.
func ExtensionX3StepMagnitudeSweep(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:    "X3",
		Title: "Step-magnitude sweep: detection floor of the catalog",
		Columns: []string{
			"step (m)", "detected", "mean latency (s)", "first assertion",
		},
		Notes: []string{
			"expected shape: sub-noise steps (≲3σ of GNSS noise) are indistinguishable and harmless; above ~1 m the innovation gate reacts, above ~1.5 m the jump detector leads",
		},
	}
	mags := []float64{0.25, 0.5, 1.0, 2.0, 5.0, 10.0}
	grid := make([]gridCell, len(mags))
	for i, mag := range mags {
		grid[i] = gridCell{class: attacks.ClassStepSpoof, size: mag, controller: o.Controller}
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for i, mag := range mags {
		ds := detections(outs[i], attacks.DefaultOnset)
		r := metrics.Aggregate(ds)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", mag),
			fmt.Sprintf("%d/%d", r.Detected, r.Runs),
			fmt.Sprintf("%.2f", r.MeanLatency),
			firstDetector(ds),
		})
	}
	return t, nil
}
