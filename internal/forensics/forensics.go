// Package forensics builds the violation-triggered forensic bundles of
// the ADAssure debugging methodology: for every assertion-violation
// episode of a run it assembles one self-contained JSON artifact holding
// everything an engineer needs to root-cause the episode without
// rerunning the simulation — the ±window slice of the signal trace, the
// monitor frames inside the window, the attack state active at the
// violation instant, the assertion's evaluation history from the metrics
// registry, and the top-ranked diagnosis hypotheses. It is the
// violation-cause-analysis layer between the raw violation record
// (internal/core) and the human: aggregate metrics say *how often* an
// assertion fired; a bundle shows *what the signals were doing* when it
// did.
package forensics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/obs"
	"adassure/internal/trace"
)

// Schema is the current bundle schema identifier.
const Schema = "adassure/bundle/v1"

// DefaultHalfWindow is the default half-width (s) of the evidence window
// around the violation raise instant.
const DefaultHalfWindow = 2.0

// AttackInfo snapshots the campaign state relative to one violation.
type AttackInfo struct {
	// Name and Class identify the injected attack instance.
	Name  string `json:"name"`
	Class string `json:"class"`
	// Start/End are the configured activation window (End 0 = open).
	Start float64 `json:"start"`
	End   float64 `json:"end,omitempty"`
	// ActiveAtViolation reports whether the attack window contained the
	// violation raise instant.
	ActiveAtViolation bool `json:"active_at_violation"`
}

// EvalHistory is the assertion's evaluation record pulled from the obs
// registry: how many frames it judged, how often it raised, and the
// latency distribution of its Eval — the cost side of the episode.
type EvalHistory struct {
	Evals      int64                `json:"evals"`
	Violations int64                `json:"violations"`
	EvalNS     obs.HistogramSummary `json:"eval_ns"`
}

// Window is the closed evidence interval [T0, T1] of a bundle.
type Window struct {
	T0 float64 `json:"t0"`
	T1 float64 `json:"t1"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.T0 && t <= w.T1 }

// Bundle is one self-contained forensic artifact for one violation
// episode.
type Bundle struct {
	Schema string `json:"schema"`
	// TraceID names the distributed trace of the run that produced the
	// bundle, linking the artifact back to its request's span tree in
	// /debug/traces (empty when the run was untraced).
	TraceID string `json:"trace_id,omitempty"`
	// Scenario carries the run metadata (track, controller, attack, seed…).
	Scenario map[string]string `json:"scenario,omitempty"`
	// Index is the episode's position in the run's violation record.
	Index int `json:"index"`
	// Violation is the episode itself, with its evidence snapshot.
	Violation core.Violation `json:"violation"`
	// Window is the evidence interval around the raise instant.
	Window Window `json:"window"`
	// Trace is the window slice of the run's signal trace (nil when the
	// run recorded no trace).
	Trace *trace.Trace `json:"trace,omitempty"`
	// Frames are the monitor frames inside the window (empty when the run
	// did not record frames). These are the violating frames: the episode's
	// raise instant always falls inside the window.
	Frames []core.Frame `json:"frames,omitempty"`
	// Attack is the campaign state (nil for clean runs).
	Attack *AttackInfo `json:"attack,omitempty"`
	// EvalHistory is the assertion's evaluation record (nil without a
	// registry).
	EvalHistory *EvalHistory `json:"eval_history,omitempty"`
	// Hypotheses are the top-ranked root-cause candidates for the whole
	// run's violation record at bundle-build time.
	Hypotheses []diagnosis.Hypothesis `json:"hypotheses,omitempty"`
}

// Input is everything Build needs, all optional except Violations: absent
// pieces (no trace, no frames, no registry, clean run) simply leave the
// corresponding bundle sections empty.
type Input struct {
	// TraceID is the executing run's trace ID, copied into every bundle.
	TraceID string
	// Scenario metadata copied into every bundle.
	Scenario map[string]string
	// Violations is the run's episode record; one bundle per entry.
	Violations []core.Violation
	// Trace is the run's signal trace.
	Trace *trace.Trace
	// Frames is the run's recorded frame stream.
	Frames []core.Frame
	// Attack describes the injected campaign (nil = clean).
	Attack *AttackInfo
	// Obs is the run's metrics registry for per-assertion eval history.
	Obs *obs.Registry
	// Hypotheses is the run's ranked diagnosis; when nil it is derived
	// from Violations.
	Hypotheses []diagnosis.Hypothesis
	// HalfWindow is the evidence half-width in seconds (default
	// DefaultHalfWindow).
	HalfWindow float64
}

// topHypotheses bounds the hypothesis list each bundle embeds.
const topHypotheses = 3

// Build assembles one bundle per violation episode. The returned slice is
// in violation-record order; an empty record yields nil.
func Build(in Input) []Bundle {
	if len(in.Violations) == 0 {
		return nil
	}
	if in.HalfWindow <= 0 {
		in.HalfWindow = DefaultHalfWindow
	}
	hyps := in.Hypotheses
	if hyps == nil {
		hyps = diagnosis.Diagnose(in.Violations)
	}
	if len(hyps) > topHypotheses {
		hyps = hyps[:topHypotheses]
	}

	out := make([]Bundle, 0, len(in.Violations))
	for i, v := range in.Violations {
		// The window is anchored on the raise instant but always extended
		// back to the first breach, so the evidence that accumulated into
		// the debounced raise is never cut off.
		t0 := v.T - in.HalfWindow
		if v.FirstBreach >= 0 && v.FirstBreach < t0 {
			t0 = v.FirstBreach
		}
		if t0 < 0 {
			t0 = 0
		}
		win := Window{T0: t0, T1: v.T + in.HalfWindow}
		v.Evidence = core.SanitizeEvidence(v.Evidence)
		b := Bundle{
			Schema:     Schema,
			TraceID:    in.TraceID,
			Scenario:   in.Scenario,
			Index:      i,
			Violation:  v,
			Window:     win,
			Attack:     attackAt(in.Attack, v.T),
			Hypotheses: hyps,
		}
		if in.Trace != nil {
			b.Trace = in.Trace.Slice(win.T0, win.T1)
		}
		for _, f := range in.Frames {
			if win.Contains(f.T) {
				b.Frames = append(b.Frames, f)
			}
		}
		if in.Obs != nil {
			id := v.AssertionID
			b.EvalHistory = &EvalHistory{
				Evals:      in.Obs.Counter("monitor." + id + ".evals").Value(),
				Violations: in.Obs.Counter("monitor." + id + ".violations").Value(),
				EvalNS:     in.Obs.Histogram("monitor." + id + ".eval_ns").Summary(),
			}
		}
		out = append(out, b)
	}
	return out
}

// attackAt stamps the per-violation activity flag onto a copy of the
// campaign info.
func attackAt(a *AttackInfo, t float64) *AttackInfo {
	if a == nil {
		return nil
	}
	cp := *a
	cp.ActiveAtViolation = t >= a.Start && (a.End == 0 || t < a.End)
	return &cp
}

// Filename returns the canonical on-disk name for a bundle:
// bundle_<index>_<assertion>_t<raise>.json — sortable, collision-free
// within a run.
func (b *Bundle) Filename() string {
	return fmt.Sprintf("bundle_%03d_%s_t%07.2fs.json", b.Index, b.Violation.AssertionID, b.Violation.T)
}

// WriteJSON serialises the bundle as indented JSON.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("forensics: encode bundle: %w", err)
	}
	return nil
}

// ReadJSON parses a bundle previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("forensics: decode bundle: %w", err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("forensics: unsupported schema %q (want %q)", b.Schema, Schema)
	}
	return &b, nil
}

// Render writes the human-readable account of a bundle (the
// `adassure-trace bundle` view): the violation, its evidence, the window,
// attack state, eval history, per-signal window statistics and the
// ranked hypotheses.
func (b *Bundle) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "forensic bundle #%d — %s (%s)\n", b.Index, b.Violation.AssertionID, b.Violation.Name)
	fmt.Fprintf(&sb, "================================================\n")
	if len(b.Scenario) > 0 {
		keys := make([]string, 0, len(b.Scenario))
		for k := range b.Scenario {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%s", k, b.Scenario[k])
		}
		fmt.Fprintf(&sb, "scenario: %s\n", strings.Join(parts, " "))
	}
	v := b.Violation
	fmt.Fprintf(&sb, "violation: raised t=%.2fs (first breach t=%.2fs, duration %.2fs) [%s]\n",
		v.T, v.FirstBreach, v.Duration, v.Severity)
	fmt.Fprintf(&sb, "  %s\n", v.Message)
	if len(v.Evidence) > 0 {
		keys := make([]string, 0, len(v.Evidence))
		for k := range v.Evidence {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  evidence %-12s %g\n", k, v.Evidence[k])
		}
	}
	fmt.Fprintf(&sb, "window: [%.2f, %.2f] s\n", b.Window.T0, b.Window.T1)
	if b.Attack != nil {
		state := "inactive"
		if b.Attack.ActiveAtViolation {
			state = "ACTIVE"
		}
		fmt.Fprintf(&sb, "attack: %s (%s), window [%g, %g) s — %s at violation\n",
			b.Attack.Name, b.Attack.Class, b.Attack.Start, b.Attack.End, state)
	}
	if b.EvalHistory != nil {
		fmt.Fprintf(&sb, "eval history: %d evals, %d violations, eval p50 %.0f ns / p99 %.0f ns\n",
			b.EvalHistory.Evals, b.EvalHistory.Violations, b.EvalHistory.EvalNS.P50, b.EvalHistory.EvalNS.P99)
	}
	if len(b.Frames) > 0 {
		fmt.Fprintf(&sb, "frames in window: %d\n", len(b.Frames))
	}
	if b.Trace != nil {
		fmt.Fprintf(&sb, "signals in window:\n")
		fmt.Fprintf(&sb, "  %-16s %8s %12s %12s %12s\n", "signal", "samples", "min", "max", "mean")
		for _, sig := range b.Trace.Signals() {
			st := b.Trace.SignalStats(sig)
			fmt.Fprintf(&sb, "  %-16s %8d %12.4f %12.4f %12.4f\n", sig, st.Count, st.Min, st.Max, st.Mean)
		}
	}
	if len(b.Hypotheses) > 0 {
		fmt.Fprintf(&sb, "ranked root-cause hypotheses:\n")
		for i, h := range b.Hypotheses {
			fmt.Fprintf(&sb, "  %d. %-24s %5.1f%%  %s\n", i+1, h.Cause, h.Confidence*100, h.Rationale)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
