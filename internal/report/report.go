// Package report renders complete Markdown debugging reports for a run:
// scenario metadata, tracking summary, comfort measures, the violation
// timeline with evidence, the ranked root-cause diagnosis, and key signal
// excerpts — the artifact an engineer files with a bug ticket.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/metrics"
	"adassure/internal/sim"
)

// Input bundles everything a report covers.
type Input struct {
	// Title heads the report.
	Title string
	// Scenario metadata rendered as a key/value table.
	Scenario map[string]string
	// Result is the simulation outcome (required).
	Result *sim.Result
	// Violations is the monitor record (may be empty).
	Violations []core.Violation
	// AttackOnset marks the ground-truth onset for latency reporting;
	// negative when unknown/clean.
	AttackOnset float64
}

// maxTimelineRows bounds the violation listing.
const maxTimelineRows = 25

// Write renders the report as Markdown.
func Write(w io.Writer, in Input) error {
	if in.Result == nil {
		return fmt.Errorf("report: nil result")
	}
	if in.Title == "" {
		in.Title = "ADAssure run report"
	}
	var b strings.Builder

	fmt.Fprintf(&b, "# %s\n\n", in.Title)

	// Scenario block.
	if len(in.Scenario) > 0 {
		b.WriteString("## Scenario\n\n")
		keys := make([]string, 0, len(in.Scenario))
		for k := range in.Scenario {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("| key | value |\n|---|---|\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "| %s | %s |\n", k, in.Scenario[k])
		}
		b.WriteString("\n")
	}

	// Run summary.
	r := in.Result
	b.WriteString("## Run summary\n\n")
	fmt.Fprintf(&b, "- simulated time: **%.1f s** (%d control steps)\n", r.SimTime, r.Steps)
	fmt.Fprintf(&b, "- route progress: **%.1f m** (%d laps, finished=%v)\n", r.ProgressTotal, r.Laps, r.Finished)
	fmt.Fprintf(&b, "- tracking: max |true CTE| **%.2f m**, RMS %.2f m, believed max %.2f m\n",
		r.MaxTrueCTE, r.RMSTrueCTE, r.MaxEstCTE)
	if r.Diverged {
		b.WriteString("- **RUN DIVERGED** — the vehicle left the 100 m corridor\n")
	}
	if r.FallbackTime > 0 {
		fmt.Fprintf(&b, "- guard fallback active for **%.1f s**\n", r.FallbackTime)
	}
	if c := metrics.ComfortFrom(r.Trace); c.MaxLatAccel > 0 {
		fmt.Fprintf(&b, "- comfort: max lateral accel %.2f m/s² (RMS %.2f), max jerk %.1f m/s³, %.1f steering reversals/min\n",
			c.MaxLatAccel, c.RMSLatAccel, c.MaxJerk, c.SteerReversalsPerMin)
	}
	b.WriteString("\n")

	// Detection block.
	if in.AttackOnset >= 0 {
		d := metrics.Detect(in.Violations, in.AttackOnset)
		b.WriteString("## Detection\n\n")
		if d.Detected {
			fmt.Fprintf(&b, "- attack onset t=%.1f s detected by **%s** after **%.2f s**\n", in.AttackOnset, d.ByID, d.Latency)
		} else {
			fmt.Fprintf(&b, "- attack onset t=%.1f s **not detected**\n", in.AttackOnset)
		}
		fmt.Fprintf(&b, "- pre-onset violations (false positives): %d\n\n", d.FalsePositives)
	}

	// Violation timeline.
	b.WriteString("## Violation timeline\n\n")
	if len(in.Violations) == 0 {
		b.WriteString("No assertion violations — nominal run.\n\n")
	} else {
		b.WriteString("| t (s) | id | assertion | severity | duration (s) | key evidence |\n|---|---|---|---|---|---|\n")
		shown := in.Violations
		if len(shown) > maxTimelineRows {
			shown = shown[:maxTimelineRows]
		}
		for _, v := range shown {
			dur := "open"
			if v.Duration > 0 {
				dur = fmt.Sprintf("%.2f", v.Duration)
			}
			fmt.Fprintf(&b, "| %.2f | %s | %s | %s | %s | %s |\n",
				v.T, v.AssertionID, v.Name, v.Severity, dur, evidenceSummary(v.Evidence))
		}
		if len(in.Violations) > maxTimelineRows {
			fmt.Fprintf(&b, "\n… %d further episodes omitted.\n", len(in.Violations)-maxTimelineRows)
		}
		b.WriteString("\n")
	}

	// Diagnosis.
	b.WriteString("## Root-cause diagnosis\n\n")
	hyps := diagnosis.Diagnose(in.Violations)
	top := hyps
	if len(top) > 3 {
		top = top[:3]
	}
	for i, h := range top {
		fmt.Fprintf(&b, "%d. **%s** (%.0f%%) — %s\n", i+1, h.Cause, h.Confidence*100, h.Rationale)
	}
	b.WriteString("\n")

	// Signal excerpts.
	if r.Trace != nil {
		b.WriteString("## Signal summary\n\n")
		b.WriteString("| signal | samples | min | max | mean | rms |\n|---|---|---|---|---|---|\n")
		for _, sig := range r.Trace.Signals() {
			st := r.Trace.SignalStats(sig)
			fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %.3f | %.3f |\n",
				sig, st.Count, st.Min, st.Max, st.Mean, st.RMS)
		}
		b.WriteString("\n")
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// evidenceSummary renders up to three evidence entries compactly, sorted
// by key for determinism.
func evidenceSummary(ev map[string]float64) string {
	if len(ev) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(ev))
	for k := range ev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 3 {
		keys = keys[:3]
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.3g", k, ev[k])
	}
	return strings.Join(parts, ", ")
}
