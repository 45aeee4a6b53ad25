package harness

import (
	"fmt"
	"sort"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/diagnosis"
	"adassure/internal/metrics"
	"adassure/internal/sim"
)

// Table1DetectionMatrix regenerates T1: which assertions fire for which
// attack class (✓ when the assertion fired post-onset in a majority of
// seeds). This is the paper-style assertion-coverage matrix.
func Table1DetectionMatrix(o Options) (*Table, error) {
	o.defaults()
	ids := []string{"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "A14", "A15"}
	t := &Table{
		ID:      "T1",
		Title:   "Detection matrix: assertion × attack class (majority of seeds, post-onset)",
		Columns: append([]string{"attack"}, ids...),
		Notes: []string{
			fmt.Sprintf("urban-loop, %s controller, %d seeds, attack window [%g, %g) s", o.Controller, o.Seeds, attacks.DefaultOnset, attacks.DefaultEnd),
			"A12 is the offline ground-truth safety envelope (simulation only)",
		},
	}
	classes := attacks.StandardClasses()
	outs, err := run(o, o.Seeds, classCells(o.Controller, classes...))
	if err != nil {
		return nil, err
	}
	for ci, class := range classes {
		hits := map[string]int{}
		for _, res := range outs[ci] {
			seen := map[string]bool{}
			for _, v := range res.Violations {
				if v.T >= attacks.DefaultOnset && !seen[v.AssertionID] {
					seen[v.AssertionID] = true
					hits[v.AssertionID]++
				}
			}
		}
		row := []string{string(class)}
		for _, id := range ids {
			cell := "."
			if hits[id]*2 > o.Seeds {
				cell = "X"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table2DetectionLatency regenerates T2: per attack class, the first-firing
// assertion and the detection latency statistics across seeds.
func Table2DetectionLatency(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:      "T2",
		Title:   "Detection latency per attack class",
		Columns: []string{"attack", "first assertion", "mean latency (s)", "median (s)", "p90 (s)", "detected"},
		Notes: []string{
			"latency = first post-onset violation time − onset",
			"expected ordering: step/replay ≪ freeze/delay/dropout < drift",
		},
	}
	classes := attacks.StandardClasses()
	outs, err := run(o, o.Seeds, classCells(o.Controller, classes...))
	if err != nil {
		return nil, err
	}
	for ci, class := range classes {
		ds := detections(outs[ci], attacks.DefaultOnset)
		r := metrics.Aggregate(ds)
		t.Rows = append(t.Rows, []string{
			string(class), firstDetector(ds),
			fmt.Sprintf("%.2f", r.MeanLatency),
			fmt.Sprintf("%.2f", r.MedianLatency),
			fmt.Sprintf("%.2f", r.P90Latency),
			fmt.Sprintf("%d/%d", r.Detected, r.Runs),
		})
	}
	return t, nil
}

// Table3DetectionRates regenerates T3: detection rate and false-positive
// rate across randomized runs, plus clean-run false alarms.
func Table3DetectionRates(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:      "T3",
		Title:   "Detection and false-positive rates",
		Columns: []string{"attack", "runs", "detection rate", "FP/run (pre-onset)"},
		Notes:   []string{"clean row: all violations count as false positives"},
	}
	seeds := o.Seeds
	if !o.Quick && seeds < 5 {
		seeds = 5
	}
	classes := append([]attacks.Class{attacks.ClassNone}, attacks.StandardClasses()...)
	outs, err := run(o, seeds, classCells(o.Controller, classes...))
	if err != nil {
		return nil, err
	}
	for ci, class := range classes {
		onset := attacks.DefaultOnset
		if class == attacks.ClassNone {
			onset = -1
		}
		r := metrics.Aggregate(detections(outs[ci], onset))
		rate := fmt.Sprintf("%.0f%%", r.DetectionRate*100)
		if class == attacks.ClassNone {
			rate = "n/a"
		}
		t.Rows = append(t.Rows, []string{
			string(class), fmt.Sprintf("%d", r.Runs), rate, fmt.Sprintf("%.2f", r.FPPerRun),
		})
	}
	return t, nil
}

// Table4DiagnosisAccuracy regenerates T4: top-1/top-2 root-cause accuracy
// per attack class, with the most common misdiagnosis.
func Table4DiagnosisAccuracy(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:      "T4",
		Title:   "Root-cause diagnosis accuracy",
		Columns: []string{"attack", "top-1", "top-2", "most common top-1"},
	}
	classes := attacks.StandardClasses()
	outs, err := run(o, o.Seeds, classCells(o.Controller, classes...))
	if err != nil {
		return nil, err
	}
	var overall1, overall2, total int
	for ci, class := range classes {
		top1, top2 := 0, 0
		preds := map[string]int{}
		for _, res := range outs[ci] {
			hyps := diagnosis.Diagnose(res.Violations)
			preds[string(hyps[0].Cause)]++
			if string(hyps[0].Cause) == string(class) {
				top1++
				top2++
			} else if len(hyps) > 1 && string(hyps[1].Cause) == string(class) {
				top2++
			}
			total++
		}
		overall1 += top1
		overall2 += top2
		common, commonN := "-", 0
		var keys []string
		for k := range preds {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if preds[k] > commonN {
				common, commonN = k, preds[k]
			}
		}
		t.Rows = append(t.Rows, []string{
			string(class),
			fmt.Sprintf("%d/%d", top1, o.Seeds),
			fmt.Sprintf("%d/%d", top2, o.Seeds),
			common,
		})
	}
	t.Rows = append(t.Rows, []string{
		"overall",
		fmt.Sprintf("%.0f%%", 100*float64(overall1)/float64(total)),
		fmt.Sprintf("%.0f%%", 100*float64(overall2)/float64(total)),
		"",
	})
	return t, nil
}

// Table5ControllerComparison regenerates T5: tracking quality and attack
// vulnerability per lateral controller.
func Table5ControllerComparison(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:    "T5",
		Title: "Controller comparison: clean tracking vs attack-induced deviation (max |true CTE|, m)",
		Columns: []string{
			"controller", "clean", "drift-spoof", "step-spoof", "violations (clean)",
		},
		Notes: []string{"per-controller weakness signatures appear in the clean-violations column and in the relative attack deviations"},
	}
	classes := []attacks.Class{attacks.ClassNone, attacks.ClassDriftSpoof, attacks.ClassStepSpoof}
	controllers := control.Names()
	var grid []gridCell
	for _, ctrl := range controllers {
		grid = append(grid, classCells(ctrl, classes...)...)
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for i, ctrl := range controllers {
		cells := map[string]float64{}
		var cleanViol int
		for k, class := range classes {
			var worst float64
			for _, res := range outs[i*len(classes)+k] {
				if res.MaxTrueCTE > worst {
					worst = res.MaxTrueCTE
				}
				if class == attacks.ClassNone {
					cleanViol += len(res.Violations)
				}
			}
			cells[string(class)] = worst
		}
		t.Rows = append(t.Rows, []string{
			ctrl,
			fmt.Sprintf("%.2f", cells[string(attacks.ClassNone)]),
			fmt.Sprintf("%.2f", cells[string(attacks.ClassDriftSpoof)]),
			fmt.Sprintf("%.2f", cells[string(attacks.ClassStepSpoof)]),
			fmt.Sprintf("%d", cleanViol),
		})
	}
	return t, nil
}

// Table6DebugLoop regenerates T6: the methodology's payoff — max true CTE
// and violation counts for the unguarded stack vs the assertion-guarded
// stack, per attack class.
func Table6DebugLoop(o Options) (*Table, error) {
	o.defaults()
	t := &Table{
		ID:    "T6",
		Title: "Debug loop: unguarded vs assertion-guarded stack (max |true CTE|, m)",
		Columns: []string{
			"attack", "unguarded", "guarded", "improvement", "fallback time (s)",
		},
		Notes: []string{
			"guard = χ²-gated fusion + staleness trigger + assertion-triggered latched fallback with MRM stop",
		},
	}
	classes := []attacks.Class{
		attacks.ClassStepSpoof, attacks.ClassDriftSpoof, attacks.ClassReplay,
		attacks.ClassFreeze, attacks.ClassDropout, attacks.ClassMeander,
	}
	guardOn := sim.GuardConfig{Enabled: true, AssertionTrigger: true}
	var grid []gridCell
	for _, class := range classes {
		grid = append(grid,
			gridCell{class: class, controller: o.Controller},
			gridCell{class: class, controller: o.Controller, guard: guardOn},
		)
	}
	outs, err := run(o, o.Seeds, grid)
	if err != nil {
		return nil, err
	}
	for k, class := range classes {
		var unguarded, guarded, fb float64
		for si := 0; si < o.Seeds; si++ {
			unguarded += outs[2*k][si].MaxTrueCTE
			gres := outs[2*k+1][si]
			guarded += gres.MaxTrueCTE
			fb += gres.FallbackTime
		}
		n := float64(o.Seeds)
		unguarded /= n
		guarded /= n
		fb /= n
		improvement := "-"
		if guarded > 0 {
			improvement = fmt.Sprintf("%.1f×", unguarded/guarded)
		}
		t.Rows = append(t.Rows, []string{
			string(class),
			fmt.Sprintf("%.2f", unguarded),
			fmt.Sprintf("%.2f", guarded),
			improvement,
			fmt.Sprintf("%.1f", fb),
		})
	}
	return t, nil
}
