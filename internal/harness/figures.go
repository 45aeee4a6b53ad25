package harness

import (
	"fmt"
	"sort"
	"time"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/metrics"
	"adassure/internal/obs"
)

// Figure1CrossTrackSeries regenerates F1: the true and believed cross-track
// error over time under a gradual drift spoof, with the detection instant
// marked — the headline "silent failure" figure.
func Figure1CrossTrackSeries(o Options) (*Table, error) {
	o.defaults()
	outs, err := run(o, 1, classCells(o.Controller, attacks.ClassDriftSpoof))
	if err != nil {
		return nil, err
	}
	res := outs[0][0]
	t := &Table{
		ID:      "F1",
		Title:   "Cross-track error vs time under gradual drift spoof (series)",
		Columns: []string{"t (s)", "true CTE (m)", "believed CTE (m)"},
	}
	trueS := res.Trace.Downsample("cte_true", 20) // 1 Hz
	for _, s := range trueS {
		believed, _ := res.Trace.At("cte_est", s.T)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", s.T),
			fmt.Sprintf("%+.2f", s.Value),
			fmt.Sprintf("%+.2f", believed),
		})
	}
	if d := metrics.Detect(res.Violations, attacks.DefaultOnset); d.Detected {
		t.Notes = append(t.Notes, fmt.Sprintf("attack onset t=%.0f s; first violation %s at t=%.2f s", attacks.DefaultOnset, d.ByID, attacks.DefaultOnset+d.Latency))
	}
	t.Notes = append(t.Notes, "expected shape: believed CTE stays near zero while true CTE ramps — the drift is invisible to the controller's own error signal")
	return t, nil
}

// Figure2Trajectory regenerates F2: true vs believed vs GNSS-reported
// trajectory under a step spoof on the figure-eight.
func Figure2Trajectory(o Options) (*Table, error) {
	o.defaults()
	outs, err := run(o, 1, classCells(o.Controller, attacks.ClassStepSpoof))
	if err != nil {
		return nil, err
	}
	res := outs[0][0]
	t := &Table{
		ID:      "F2",
		Title:   "Trajectory under step spoof: truth vs estimate vs delivered GNSS",
		Columns: []string{"t (s)", "true x", "true y", "est x", "est y", "gnss x", "gnss y"},
		Notes:   []string{"expected shape: at onset the GNSS/estimate tracks jump off the true track; the controller then drags the true track off the route"},
	}
	for _, s := range res.Trace.Downsample("true_x", 20) {
		ty, _ := res.Trace.At("true_y", s.T)
		ex, _ := res.Trace.At("est_x", s.T)
		ey, _ := res.Trace.At("est_y", s.T)
		gx, _ := res.Trace.At("gnss_x", s.T)
		gy, _ := res.Trace.At("gnss_y", s.T)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", s.T),
			fmt.Sprintf("%.2f", s.Value), fmt.Sprintf("%.2f", ty),
			fmt.Sprintf("%.2f", ex), fmt.Sprintf("%.2f", ey),
			fmt.Sprintf("%.2f", gx), fmt.Sprintf("%.2f", gy),
		})
	}
	return t, nil
}

// Figure3LatencyCDF regenerates F3: the CDF of detection latency across
// seeds for a fast attack (step) and a slow one (drift).
func Figure3LatencyCDF(o Options) (*Table, error) {
	o.defaults()
	seeds := o.Seeds
	if !o.Quick && seeds < 10 {
		seeds = 10
	}
	outs, err := run(o, seeds, classCells(o.Controller, attacks.ClassStepSpoof, attacks.ClassDriftSpoof))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "F3",
		Title:   "Detection-latency CDF (step vs drift spoof)",
		Columns: []string{"attack", "latency (s)", "CDF"},
		Notes:   []string{fmt.Sprintf("%d seeds per class; expected shape: the step CDF saturates within a fraction of a second, drift only after several seconds", seeds)},
	}
	for i, name := range []string{"step-spoof", "drift-spoof"} {
		var lats []float64
		for _, d := range detections(outs[i], attacks.DefaultOnset) {
			if d.Detected {
				lats = append(lats, d.Latency)
			}
		}
		for _, p := range metrics.CDF(lats) {
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%.2f", p.Value), fmt.Sprintf("%.2f", p.Fraction),
			})
		}
	}
	return t, nil
}

// Figure4MonitorOverhead regenerates F4: the cost of assertion monitoring
// per control frame as the catalog grows, from 0 assertions to the full
// catalog. Each row is the wall time of its whole frame loop, the minimum
// over f4Repeats repeats that alternate between the rows, divided by the
// frame count: a transient load on the machine stretches some repeats of
// a row, not all of them. Every monitor is attached to a private obs
// registry, as a production run can enable; the full catalog's registry
// feeds the "observed cost" notes. This experiment deliberately stays
// sequential: it times a hot path, and sharing workers or Options.Obs with
// other experiments would contaminate the measurement.
func Figure4MonitorOverhead(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:      "F4",
		Title:   "Runtime overhead of assertion monitoring per control frame",
		Columns: []string{"assertions", "ns/frame"},
		Notes: []string{
			"synthetic nominal frame stream; a 20 Hz control period is 50 ms — expected shape: full catalog costs a vanishing fraction of the budget",
		},
	}
	n := 20000
	if o.Quick {
		n = 5000
	}
	frames := make([]core.Frame, n)
	for i := range frames {
		f := &frames[i]
		*f = core.Frame{
			T: float64(i) * 0.05, Dt: 0.05,
			EstSpeed: 5, GNSSValid: true, GNSSAge: 0.02,
			GNSSSpeed: 5, OdomSpeed: 5, NIS: 1, NISFresh: true,
			Progress: float64(i) * 0.25, TrueSpeed: 5,
		}
		f.EstX = float64(i) * 0.25
		f.GNSSX = f.EstX
	}
	full := len(core.NewCatalog(core.CatalogConfig{IncludeGroundTruth: true}))
	sizes := []int{0, 4, 8, full}
	best := make([]time.Duration, len(sizes))
	var fullReg *obs.Registry
	var fullIDs []string
	for rep := 0; rep < f4Repeats; rep++ {
		for r, size := range sizes {
			reg := obs.NewRegistry()
			entries := core.NewCatalog(core.CatalogConfig{IncludeGroundTruth: true})
			mon := core.NewMonitor().Attach(reg)
			for _, e := range entries[:size] {
				mon.Add(e.Assertion, e.Debounce)
			}
			start := time.Now()
			for i := range frames {
				mon.Step(frames[i])
			}
			if d := time.Since(start); rep == 0 || d < best[r] {
				best[r] = d
			}
			if size == full {
				fullReg, fullIDs = reg, mon.AssertionIDs()
			}
		}
	}
	for r, size := range sizes {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", size), fmt.Sprintf("%d", best[r].Nanoseconds()/int64(n))})
	}
	t.Notes = append(t.Notes, observedCostNotes(fullReg, fullIDs, n)...)
	return t, nil
}

// f4Repeats is how many alternating repeats of its frame loop each F4 row
// takes the minimum over.
const f4Repeats = 3

// observedCostNotes renders the F4 "Observed cost" section from a metrics
// registry: the whole-step latency percentiles and the costliest of the
// assertions named by ids, as measured by the monitor's own instrumentation on its
// sampled frames (see obs.SampleEvery).
func observedCostNotes(reg *obs.Registry, ids []string, frames int) []string {
	if reg == nil {
		return nil
	}
	step := reg.Histogram("monitor.step_ns").Summary()
	notes := []string{fmt.Sprintf(
		"observed cost (full catalog, %d frames, 1 in %d timed): monitor step p50=%.0f ns p95=%.0f ns p99=%.0f ns",
		frames, obs.SampleEvery, step.P50, step.P95, step.P99)}
	type cost struct {
		id   string
		mean float64
		p95  float64
	}
	var costs []cost
	for _, id := range ids {
		h := reg.Histogram("monitor." + id + ".eval_ns")
		costs = append(costs, cost{id: id, mean: h.Mean(), p95: h.Quantile(0.95)})
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].mean > costs[j].mean })
	if len(costs) > 3 {
		costs = costs[:3]
	}
	for _, c := range costs {
		notes = append(notes, fmt.Sprintf(
			"observed cost: %s mean=%.0f ns p95=%.0f ns per frame (incl. debounce bookkeeping and a ~90–130 ns clock read)",
			c.id, c.mean, c.p95))
	}
	return notes
}

// Figure5ThresholdAblation regenerates F5: sweeping the catalog threshold
// scale trades detection latency against pre-onset false positives.
func Figure5ThresholdAblation(o Options) (*Table, error) {
	o.defaults()
	var catalogs []core.CatalogConfig
	for _, scale := range []float64{0.5, 0.75, 1.0, 1.5, 2.0} {
		catalogs = append(catalogs, core.CatalogConfig{ThresholdScale: scale})
	}
	return catalogAblation(o, &Table{
		ID:      "F5",
		Title:   "Threshold-scale ablation: FP/run vs drift detection latency",
		Columns: []string{"threshold scale", "FP/run (clean)", "drift latency (s)", "drift detected"},
		Notes:   []string{"scale multiplies every catalog threshold; expected shape: tighter thresholds detect sooner but alarm on nominal runs"},
	}, attacks.ClassDriftSpoof, catalogs, func(c core.CatalogConfig) string {
		return fmt.Sprintf("%.2f", c.ThresholdScale)
	})
}

// Figure6DebounceAblation regenerates F6: sweeping the k-of-n debounce
// window trades noise-attack false structure against detection latency.
func Figure6DebounceAblation(o Options) (*Table, error) {
	o.defaults()
	var catalogs []core.CatalogConfig
	for _, deb := range []core.Debounce{{K: 1, N: 1}, {K: 2, N: 3}, {K: 4, N: 5}, {K: 6, N: 8}} {
		catalogs = append(catalogs, core.CatalogConfig{Debounce: deb})
	}
	return catalogAblation(o, &Table{
		ID:      "F6",
		Title:   "Debounce-window ablation (uniform k-of-n override)",
		Columns: []string{"debounce", "FP/run (clean)", "step latency (s)", "step detected"},
		Notes:   []string{"expected shape: longer windows suppress residual false alarms at the cost of detection latency growing with N"},
	}, attacks.ClassStepSpoof, catalogs, func(c core.CatalogConfig) string {
		return fmt.Sprintf("%d-of-%d", c.Debounce.K, c.Debounce.N)
	})
}

// catalogAblation fills t with one row per catalog variant: its label, the
// mean violation count of clean runs (every one a false positive) and the
// detection of class, over the option's seeds.
func catalogAblation(o Options, t *Table, class attacks.Class, catalogs []core.CatalogConfig, label func(core.CatalogConfig) string) (*Table, error) {
	var grid []gridCell
	for _, cat := range catalogs {
		grid = append(grid,
			gridCell{class: attacks.ClassNone, controller: o.Controller, catalog: cat},
			gridCell{class: class, controller: o.Controller, catalog: cat},
		)
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for i, cat := range catalogs {
		var fp int
		for _, res := range outs[2*i] {
			fp += len(res.Violations)
		}
		r := metrics.Aggregate(detections(outs[2*i+1], attacks.DefaultOnset))
		t.Rows = append(t.Rows, []string{
			label(cat),
			fmt.Sprintf("%.2f", float64(fp)/float64(o.Seeds)),
			fmt.Sprintf("%.2f", r.MeanLatency),
			fmt.Sprintf("%d/%d", r.Detected, r.Runs),
		})
	}
	return t, nil
}
