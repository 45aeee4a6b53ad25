// Package adassure is the public API of ADAssure, an assertion-based
// debugging methodology for autonomous-driving control algorithms.
//
// The library provides, end to end:
//
//   - a deterministic closed-loop driving simulator (vehicle models,
//     sensors, tracks, localization fusion, four lateral controllers);
//   - an attack-injection framework over the GNSS/IMU/odometry channels;
//   - the ADAssure runtime-assertion catalog (A1–A15) with a k-of-n
//     debounced monitor engine and an assertion DSL for custom invariants;
//   - a root-cause diagnosis engine mapping violation signatures to ranked
//     hypotheses with rationales;
//   - an experiment harness regenerating every table and figure of the
//     evaluation.
//
// # Quick start
//
//	scn := adassure.Scenario{
//		Track:      adassure.TrackUrbanLoop,
//		Controller: adassure.ControllerPurePursuit,
//		Attack:     adassure.AttackDriftSpoof,
//		Seed:       1,
//	}
//	out, err := scn.Run()
//	if err != nil { ... }
//	fmt.Println(out.Report()) // violation timeline + ranked root causes
//
// The subsystems are exposed through type aliases so advanced users can
// compose them directly: see Monitor, Assertion, Campaign, SimConfig.
package adassure

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/events"
	"adassure/internal/forensics"
	"adassure/internal/geom"
	"adassure/internal/harness"
	"adassure/internal/mutate"
	"adassure/internal/obs"
	"adassure/internal/offline"
	"adassure/internal/report"
	"adassure/internal/runner"
	"adassure/internal/search"
	"adassure/internal/sim"
	"adassure/internal/stream"
	"adassure/internal/telemetry"
	"adassure/internal/trace"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// Re-exported core types: the assertion framework.
type (
	// Frame is one control-period signal sample consumed by the monitor.
	Frame = core.Frame
	// Limits scales assertion thresholds to a platform envelope.
	Limits = core.Limits
	// Assertion is one runtime invariant.
	Assertion = core.Assertion
	// Outcome is an assertion evaluation result.
	Outcome = core.Outcome
	// Monitor evaluates assertions over the frame stream.
	Monitor = core.Monitor
	// Violation is one raised assertion episode.
	Violation = core.Violation
	// Debounce is the k-of-n raise policy.
	Debounce = core.Debounce
	// CatalogConfig tunes the built-in catalog.
	CatalogConfig = core.CatalogConfig
	// Severity grades violations.
	Severity = core.Severity
)

// Re-exported severities.
const (
	SeverityInfo     = core.Info
	SeverityWarning  = core.Warning
	SeverityCritical = core.Critical
)

// Re-exported simulation and diagnosis types.
type (
	// SimConfig is the full simulation configuration for direct use.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
	// GuardConfig configures the defended stack.
	GuardConfig = sim.GuardConfig
	// Campaign is an attack configuration.
	Campaign = attacks.Campaign
	// AttackWindow is an attack activation interval.
	AttackWindow = attacks.Window
	// Hypothesis is a ranked root-cause candidate.
	Hypothesis = diagnosis.Hypothesis
	// Cause identifies a diagnosed root cause.
	Cause = diagnosis.Cause
	// VehicleParams describes the simulated platform.
	VehicleParams = vehicle.Params
	// Track is a reference route with a speed limit.
	Track = track.Track
	// SpeedZone restricts speed over an arc-length range of a track.
	SpeedZone = track.SpeedZone
	// Waypoint is a planar route point for custom tracks.
	Waypoint = geom.Vec2
	// Trace is the recorded signal time-series of a run.
	Trace = trace.Trace
	// Table is a rendered experiment result.
	Table = harness.Table
	// ExperimentOptions configures experiment regeneration.
	ExperimentOptions = harness.Options
	// Recording is a persisted frame stream for offline re-monitoring.
	Recording = offline.Recording
	// RecordingMeta is the recording provenance.
	RecordingMeta = offline.Meta
	// StreamConfig configures an online monitoring session.
	StreamConfig = stream.Config
	// StreamSession is an incremental monitor over an unbounded frame
	// stream (see internal/stream): fixed-size per-frame state, a rolling
	// diagnosis re-ranked on every closed violation episode, and typed
	// events to an optional sink — with results identical to batch
	// monitoring of the same frames.
	StreamSession = stream.Session
	// StreamEvent is one typed event emitted by a streaming session
	// (violation opened/closed, diagnosis, heartbeat, frame rejected,
	// session closed).
	StreamEvent = stream.Event
	// StreamStats is a concurrent-safe streaming-session counter
	// snapshot.
	StreamStats = stream.Stats
	// Registry is the runtime-metrics registry (see internal/obs): atomic
	// counters, gauges and fixed-bucket latency histograms the sim step
	// loop, assertion monitor and scenario runner report into. Attach one
	// via Scenario.Obs, BatchOptions.Obs or ExperimentOptions.Obs; a nil
	// registry costs nothing.
	Registry = obs.Registry
	// EventRecorder is the structured event timeline — the "flight
	// recorder" (see internal/events): typed spans and instants for
	// scenario lifecycle, attack windows, violation episodes, guard
	// fallback, diagnosis hypotheses and runner job spans, with an
	// optional bounded ring buffer so long runs stay O(1) memory. Attach
	// one via Scenario.Events, BatchOptions.Events or
	// ExperimentOptions.Events; a nil recorder costs nothing.
	EventRecorder = events.Recorder
	// Event is one recorded timeline entry.
	Event = events.Event
	// EventLog is the serialised form of a recorded event stream.
	EventLog = events.Log
	// ForensicBundle is one violation-triggered debugging artifact: the
	// evidence-window trace slice, the in-window frames, the attack state,
	// the assertion's eval history and the top diagnosis hypotheses (see
	// internal/forensics).
	ForensicBundle = forensics.Bundle
	// AttackInfo snapshots campaign state inside a forensic bundle.
	AttackInfo = forensics.AttackInfo
	// TraceSpan is one span of a distributed request trace (see
	// internal/telemetry). The serving layer threads its per-request span
	// into Scenario.Span so the run's sim+monitor and diagnosis phases
	// appear as children in the request's trace; a nil span costs nothing.
	TraceSpan = telemetry.Span
)

// NewEventRecorder builds an event recorder. capacity > 0 bounds it to
// the newest events (flight-recorder mode); capacity <= 0 keeps all.
func NewEventRecorder(capacity int) *EventRecorder { return events.NewRecorder(capacity) }

// WriteEventTimeline renders an event stream as a plain-text timeline.
func WriteEventTimeline(w io.Writer, evs []Event) error { return events.WriteTimeline(w, evs) }

// WritePerfetto exports an event stream in Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WritePerfetto(w io.Writer, evs []Event) error { return events.WritePerfetto(w, evs) }

// ReadEventLog parses an events file written by EventRecorder.WriteJSON.
func ReadEventLog(r io.Reader) (EventLog, error) { return events.ReadJSON(r) }

// ReadForensicBundle parses a bundle file written by Bundle.WriteJSON.
func ReadForensicBundle(r io.Reader) (*ForensicBundle, error) { return forensics.ReadJSON(r) }

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewCatalogMonitor builds a Monitor loaded with the built-in assertion
// catalog A1–A15.
func NewCatalogMonitor(cfg CatalogConfig) *Monitor { return core.NewCatalogMonitor(cfg) }

// NewMonitor builds an empty Monitor for custom assertion sets.
func NewMonitor() *Monitor { return core.NewMonitor() }

// NewStreamSession opens an online monitoring session for incremental
// frame ingest. Feed it typed frames with Ingest, NDJSON lines with
// IngestLine, or a whole reader with Consume; Close flushes the final
// session-closed event and returns the stats.
func NewStreamSession(cfg StreamConfig) (*StreamSession, error) { return stream.New(cfg) }

// NewAssertion wraps an evaluation closure as a custom Assertion; see also
// the DSL helpers BoundAssertion, RateAssertion, ConsistencyAssertion.
func NewAssertion(id, name, desc string, sev Severity, eval func(Frame) Outcome, reset func()) Assertion {
	var byRef func(*Frame, *Outcome) // nil stays nil, so core still rejects it
	if eval != nil {
		byRef = func(f *Frame, o *Outcome) { *o = eval(*f) }
	}
	return core.NewAssertion(id, name, desc, sev, byRef, reset)
}

// BoundAssertion asserts lo ≤ extract(frame) ≤ hi.
func BoundAssertion(id, name, desc string, sev Severity, extract func(Frame) (float64, bool), lo, hi float64) Assertion {
	return core.Bound(id, name, desc, sev, byValue(extract), lo, hi)
}

// RateAssertion asserts |d extract/dt| ≤ maxRate.
func RateAssertion(id, name, desc string, sev Severity, extract func(Frame) (float64, bool), maxRate float64) Assertion {
	return core.Rate(id, name, desc, sev, byValue(extract), maxRate)
}

// ConsistencyAssertion asserts |a − b| ≤ tol whenever both apply.
func ConsistencyAssertion(id, name, desc string, sev Severity, a, b func(Frame) (float64, bool), tol float64) Assertion {
	return core.Consistency(id, name, desc, sev, byValue(a), byValue(b), nil, tol)
}

// byValue adapts a frame-by-value extractor to core's by-reference one.
func byValue(extract func(Frame) (float64, bool)) core.Extractor {
	return func(f *Frame) (float64, bool) { return extract(*f) }
}

// Diagnose ranks root-cause hypotheses for a violation record.
func Diagnose(vs []Violation) []Hypothesis { return diagnosis.Diagnose(vs) }

// DiagnosisReport renders the human-readable debugging report.
func DiagnosisReport(vs []Violation, topN int) string { return diagnosis.Report(vs, topN) }

// Segment is one temporally-coherent incident with its own diagnosis.
type Segment = diagnosis.Segment

// Segmentize splits a violation record into incident segments separated by
// quiet gaps (default 5 s) and diagnoses each — for drives containing
// multiple incidents.
func Segmentize(vs []Violation, quietGap float64) []Segment {
	return diagnosis.Segmentize(vs, diagnosis.SegmentOptions{QuietGap: quietGap})
}

// SegmentReport renders the multi-incident debugging report.
func SegmentReport(vs []Violation, quietGap float64) string {
	return diagnosis.SegmentReport(vs, diagnosis.SegmentOptions{QuietGap: quietGap})
}

// TrackName selects a built-in test route.
type TrackName string

// Built-in tracks.
const (
	TrackStraight         TrackName = "straight"
	TrackCircle           TrackName = "circle"
	TrackSCurve           TrackName = "s-curve"
	TrackFigureEight      TrackName = "figure-eight"
	TrackDoubleLaneChange TrackName = "double-lane-change"
	TrackUrbanLoop        TrackName = "urban-loop"
	TrackHairpin          TrackName = "hairpin"
)

// ControllerName selects a built-in lateral controller.
type ControllerName string

// Built-in controllers.
const (
	ControllerPurePursuit ControllerName = "pure-pursuit"
	ControllerStanley     ControllerName = "stanley"
	ControllerPIDLateral  ControllerName = "pid-lateral"
	ControllerLQRMPC      ControllerName = "lqr-mpc"
)

// AttackName selects a built-in attack class with canonical parameters.
type AttackName string

// Built-in attacks.
const (
	AttackNone           AttackName = "none"
	AttackStepSpoof      AttackName = "gnss-step-spoof"
	AttackDriftSpoof     AttackName = "gnss-drift-spoof"
	AttackReplay         AttackName = "gnss-replay"
	AttackFreeze         AttackName = "gnss-freeze"
	AttackDelay          AttackName = "gnss-delay"
	AttackDropout        AttackName = "gnss-dropout"
	AttackNoiseInflation AttackName = "gnss-noise-inflation"
	AttackMeander        AttackName = "gnss-meander"
	AttackIMUHeadingBias AttackName = "imu-heading-bias"
	AttackOdomScale      AttackName = "odom-scale"
	AttackStuckSteer     AttackName = "actuator-stuck-steer"
	AttackSteerOffset    AttackName = "actuator-steer-offset"
)

// AttackNames lists the built-in attack classes in stable order.
func AttackNames() []AttackName {
	out := []AttackName{}
	for _, c := range attacks.StandardClasses() {
		out = append(out, AttackName(c))
	}
	return out
}

// Scenario is the high-level entry point: one named configuration that can
// be run with a single call.
type Scenario struct {
	// Track is the route (default TrackUrbanLoop).
	Track TrackName
	// CustomTrack overrides Track with a user-built route (e.g. from
	// TrackFromWaypoints, optionally with zones).
	CustomTrack *Track
	// Controller is the lateral controller (default ControllerPurePursuit).
	Controller ControllerName
	// Attack is the injected attack class (default AttackNone).
	Attack AttackName
	// AttackStart/AttackEnd bound the attack window (defaults 20/50 s;
	// zeroed without an attack).
	AttackStart, AttackEnd float64
	// Seed drives all stochastic components (default 1).
	Seed int64
	// Duration is the simulated time in seconds (default 70, at most
	// 3600: the simulator's bound on one run).
	Duration float64
	// SpeedLimit of the route in m/s (default 6).
	SpeedLimit float64
	// Guarded enables the defended stack (gate + assertion-triggered
	// fallback).
	Guarded bool
	// ThresholdScale loosens (>1) or tightens (<1) the catalog thresholds
	// (default 1).
	ThresholdScale float64
	// RecordFrames captures the frame stream into the result's Recording
	// for offline re-monitoring.
	RecordFrames bool
	// RecordTrace records the run's 19-column signal trace into Sim.Trace.
	// Off by default: the trace is most of a run's memory and only the
	// Markdown report, trace exports and forensic bundles read it.
	// WriteMarkdownReport fails without it.
	RecordTrace bool
	// Localizer selects the fusion stack: "ekf" (default) or
	// "complementary" (fixed-gain filter without innovation gating).
	Localizer string
	// Obs, when non-nil, collects runtime metrics for the run: control-step
	// count and latency histogram, achieved steps/s, and the per-assertion
	// monitoring cost (eval latency, eval and violation counts). Read the
	// results through the handles or as text with Registry.WriteProm. Nil
	// (the default) adds no overhead.
	Obs *Registry
	// Events, when non-nil, records the run's structured event timeline:
	// the scenario lifecycle span, the attack activation window, guard
	// fallback intervals, every violation episode and the top diagnosis
	// hypotheses. Render with WriteEventTimeline, export with
	// WritePerfetto, persist with EventRecorder.WriteJSON. Nil (the
	// default) adds no overhead.
	Events *EventRecorder
	// EventScope prefixes every event track of the run (e.g. "s3/"),
	// keeping tracks distinct when several scenarios share one recorder;
	// RunScenarioBatch assigns per-index scopes automatically.
	EventScope string
	// Assertions, when non-empty, restricts the monitor to the named
	// catalog assertion IDs (e.g. "A1", "A3", "A12"); unknown IDs are an
	// error. Empty (the default) loads the full catalog. Used by the
	// serving layer's per-request catalog selection.
	Assertions []string
	// Span, when non-nil, is the parent span the run's phases report
	// under: RunContext opens one child span covering the simulation +
	// monitoring loop and one covering diagnosis. Phase spans are
	// constant-count per run (never per step), and a nil span (the
	// default) is a single-branch no-op.
	Span *TraceSpan
}

// Outcome of a Scenario run.
type ScenarioResult struct {
	// Sim is the raw simulation result, including the signal trace when
	// Scenario.RecordTrace was set.
	Sim *SimResult
	// Violations is the monitor's episode record.
	Violations []Violation
	// Hypotheses is the ranked diagnosis.
	Hypotheses []Hypothesis
	// Recording holds the frame stream when Scenario.RecordFrames was set.
	Recording *Recording

	scenario Scenario
}

// Report renders the combined debugging report.
func (r *ScenarioResult) Report() string {
	return diagnosis.Report(r.Violations, 3)
}

// errNoTrace is WriteMarkdownReport's error for a run without a trace,
// whose comfort line and signal summary the report would otherwise drop.
var errNoTrace = errors.New("adassure: the report needs the signal trace: run with Scenario.RecordTrace")

// WriteMarkdownReport renders the full Markdown debugging report (scenario
// metadata, run summary, detection, timeline, diagnosis, signal summary).
// The run must have set Scenario.RecordTrace.
func (r *ScenarioResult) WriteMarkdownReport(w io.Writer) error {
	if r.Sim.Trace == nil {
		return errNoTrace
	}
	onset := -1.0
	if r.scenario.Attack != AttackNone {
		onset = r.scenario.AttackStart
	}
	return report.Write(w, report.Input{
		Title: fmt.Sprintf("ADAssure report — %s on %s (%s, seed %d)",
			r.scenario.Attack, r.scenario.Track, r.scenario.Controller, r.scenario.Seed),
		Scenario: map[string]string{
			"track":      string(r.scenario.Track),
			"controller": string(r.scenario.Controller),
			"attack":     string(r.scenario.Attack),
			"seed":       fmt.Sprintf("%d", r.scenario.Seed),
			"guarded":    fmt.Sprintf("%v", r.scenario.Guarded),
		},
		Result:      r.Sim,
		Violations:  r.Violations,
		AttackOnset: onset,
	})
}

// ForensicBundles builds one self-contained debugging bundle per violation
// episode of the run: a ±halfWindow trace slice around the violation,
// extended back to the episode's first breach (when Scenario.RecordTrace
// was set), the in-window frames (when Scenario.RecordFrames was set), the
// attack state, the assertion's eval history (when Scenario.Obs was set)
// and the top diagnosis hypotheses.
// halfWindow <= 0 uses the 2 s default. Persist each with
// ForensicBundle.WriteJSON; re-read with ReadForensicBundle.
func (r *ScenarioResult) ForensicBundles(halfWindow float64) []ForensicBundle {
	var attack *AttackInfo
	if r.scenario.Attack != AttackNone {
		attack = &AttackInfo{
			Name:  string(r.scenario.Attack),
			Class: string(r.scenario.Attack),
			Start: r.scenario.AttackStart,
			End:   r.scenario.AttackEnd,
		}
	}
	return forensics.Build(forensics.Input{
		Scenario: map[string]string{
			"track":      string(r.scenario.Track),
			"controller": string(r.scenario.Controller),
			"attack":     string(r.scenario.Attack),
			"seed":       fmt.Sprintf("%d", r.scenario.Seed),
			"guarded":    fmt.Sprintf("%v", r.scenario.Guarded),
		},
		Violations: r.Violations,
		Trace:      r.Sim.Trace,
		Frames:     r.Sim.Frames,
		Attack:     attack,
		Obs:        r.scenario.Obs,
		Hypotheses: r.Hypotheses,
		HalfWindow: halfWindow,
	})
}

// Detected reports whether any violation was raised at or after t.
func (r *ScenarioResult) Detected(after float64) bool {
	for _, v := range r.Violations {
		if v.T >= after {
			return true
		}
	}
	return false
}

// Run executes the scenario.
func (s Scenario) Run() (*ScenarioResult, error) {
	return s.RunContext(context.Background())
}

// ScenarioNames are the values each Scenario name field accepts, read
// from the registries that build them: Scenario.Canonicalize checks names
// against them, and the serving layer's /v1/catalog lists them.
type ScenarioNames struct {
	// Assertions are the catalog assertion IDs, in catalog order.
	Assertions []string `json:"assertions"`
	// Attacks are "none" and every built-in attack class.
	Attacks []string `json:"attacks"`
	// Controllers are the lateral controllers, in registry order.
	Controllers []string `json:"controllers"`
	// Localizers are the fusion stacks, the default first.
	Localizers []string `json:"localizers"`
	// Tracks are the built-in routes, sorted.
	Tracks []string `json:"tracks"`
}

// Names returns the accepted scenario names. They are built once and
// shared: callers must not modify the slices.
func Names() ScenarioNames { return scenarioNames() }

var scenarioNames = sync.OnceValue(func() ScenarioNames {
	n := ScenarioNames{
		Assertions:  core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true}).AssertionIDs(),
		Attacks:     []string{string(AttackNone)},
		Controllers: control.Names(),
		Localizers:  sim.Localizers(),
		Tracks:      track.BuiltinNames(),
	}
	for _, c := range attacks.StandardClasses() {
		n.Attacks = append(n.Attacks, string(c))
	}
	return n
})

// Canonicalize validates the scenario and returns it with every
// defaultable field filled in, so equivalent scenarios compare equal:
// track urban-loop, controller pure-pursuit, attack none, localizer ekf,
// seed 1, 70 s, 6 m/s and threshold scale 1. An attack window defaults to
// [20, 50) s; without an attack it is meaningless and zeroed. Assertions
// are sorted and deduplicated (nil when empty). Names must be in Names()
// (a CustomTrack skips the track-name check), and durations, speed limits
// and threshold scales must be positive and finite. The receiver is not
// modified.
func (s Scenario) Canonicalize() (Scenario, error) {
	if s.Track == "" {
		s.Track = TrackUrbanLoop
	}
	if s.Controller == "" {
		s.Controller = ControllerPurePursuit
	}
	if s.Attack == "" {
		s.Attack = AttackNone
	}
	if s.Localizer == "" {
		s.Localizer = sim.Localizers()[0]
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == 0 {
		s.Duration = attacks.ScenarioDuration
	}
	if s.SpeedLimit == 0 {
		s.SpeedLimit = track.DefaultSpeedLimit
	}
	if s.ThresholdScale == 0 {
		s.ThresholdScale = 1
	}
	if s.Attack == AttackNone {
		s.AttackStart, s.AttackEnd = 0, 0
	} else {
		if s.AttackStart == 0 {
			s.AttackStart = attacks.DefaultOnset
		}
		if s.AttackEnd == 0 {
			s.AttackEnd = attacks.DefaultEnd
		}
	}
	if len(s.Assertions) > 0 {
		ids := slices.Clone(s.Assertions)
		slices.Sort(ids)
		s.Assertions = slices.Compact(ids)
	} else {
		s.Assertions = nil
	}

	n := Names()
	switch {
	case s.CustomTrack == nil && !slices.Contains(n.Tracks, string(s.Track)):
		return s, fmt.Errorf("adassure: unknown track %q (have %v)", s.Track, n.Tracks)
	case !slices.Contains(n.Controllers, string(s.Controller)):
		return s, fmt.Errorf("adassure: unknown controller %q (have %v)", s.Controller, n.Controllers)
	case !slices.Contains(n.Attacks, string(s.Attack)):
		return s, fmt.Errorf("adassure: unknown attack %q (have %v)", s.Attack, n.Attacks)
	case !slices.Contains(n.Localizers, s.Localizer):
		return s, fmt.Errorf("adassure: unknown localizer %q (have %v)", s.Localizer, n.Localizers)
	case !(s.Duration > 0 && s.Duration <= sim.MaxDuration):
		return s, fmt.Errorf("adassure: duration must be in (0, %g] s, got %v", float64(sim.MaxDuration), s.Duration)
	case !positive(s.SpeedLimit):
		return s, fmt.Errorf("adassure: speed limit must be positive and finite, got %v", s.SpeedLimit)
	case !positive(s.ThresholdScale):
		return s, fmt.Errorf("adassure: threshold scale must be positive and finite, got %v", s.ThresholdScale)
	case !finite(s.AttackStart) || !finite(s.AttackEnd) || s.AttackStart < 0:
		return s, fmt.Errorf("adassure: attack window [%v, %v] must be finite and non-negative", s.AttackStart, s.AttackEnd)
	case s.Attack != AttackNone && s.AttackEnd <= s.AttackStart:
		return s, fmt.Errorf("adassure: attack window end %g must exceed start %g", s.AttackEnd, s.AttackStart)
	}
	for _, id := range s.Assertions {
		if !slices.Contains(n.Assertions, id) {
			return s, fmt.Errorf("adassure: unknown catalog assertion %q (have %v)", id, n.Assertions)
		}
	}
	return s, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func positive(v float64) bool { return finite(v) && v > 0 }

// RunContext executes the scenario under ctx: cancelling it (or hitting
// its deadline) aborts the simulation within one control step and returns
// an error wrapping ctx.Err(). nil means context.Background(). The
// scenario is canonicalized first, so an invalid one is an error before
// anything runs.
func (s Scenario) RunContext(ctx context.Context) (*ScenarioResult, error) {
	s, err := s.Canonicalize()
	if err != nil {
		return nil, err
	}

	tr := s.CustomTrack
	if tr == nil {
		if tr, err = BuiltinTrack(s.Track, s.SpeedLimit); err != nil {
			return nil, err
		}
	}

	var camp Campaign
	if s.Attack != AttackNone {
		camp, err = attacks.Standard(attacks.Class(s.Attack), attacks.Window{Start: s.AttackStart, End: s.AttackEnd}, s.Seed)
		if err != nil {
			return nil, err
		}
	}

	mon, err := core.NewCatalogMonitorWith(core.CatalogConfig{
		ThresholdScale:     s.ThresholdScale,
		IncludeGroundTruth: true,
	}, s.Assertions)
	if err != nil {
		return nil, fmt.Errorf("adassure: %w", err)
	}
	cfg := sim.Config{
		Context:      ctx,
		Track:        tr,
		Controller:   string(s.Controller),
		Seed:         s.Seed,
		Duration:     s.Duration,
		Campaign:     camp,
		Monitor:      mon,
		RecordFrames: s.RecordFrames,
		RecordTrace:  s.RecordTrace,
		Localizer:    s.Localizer,
		Obs:          s.Obs,
		Events:       s.Events,
		EventScope:   s.EventScope,
	}
	if s.Guarded {
		cfg.Guard = sim.GuardConfig{Enabled: true, AssertionTrigger: true}
	}
	simSpan := s.Span.StartChild("phase.sim+monitor")
	res, err := sim.Run(cfg)
	if err != nil {
		simSpan.End()
		return nil, err
	}
	vs := mon.Violations()
	if simSpan.Enabled() {
		simSpan.SetInt("steps", int64(res.Steps))
		simSpan.SetInt("violations", int64(len(vs)))
	}
	simSpan.End()
	diagSpan := s.Span.StartChild("phase.diagnosis")
	hyps := diagnosis.Diagnose(vs)
	if diagSpan.Enabled() {
		diagSpan.SetInt("hypotheses", int64(len(hyps)))
	}
	diagSpan.End()
	out := &ScenarioResult{
		Sim:        res,
		Violations: vs,
		Hypotheses: hyps,
		scenario:   s,
	}
	if s.Events != nil && len(vs) > 0 {
		diagnosis.RecordHypotheses(s.Events, s.EventScope, res.SimTime, out.Hypotheses, 3)
	}
	if s.RecordFrames {
		out.Recording = &Recording{
			Meta: RecordingMeta{
				Track:      string(s.Track),
				Controller: string(s.Controller),
				Attack:     string(s.Attack),
				Seed:       s.Seed,
				Duration:   s.Duration,
			},
			Frames: res.Frames,
		}
	}
	return out, nil
}

// RunScenarios executes independent scenarios concurrently across a
// worker pool of the given size (workers <= 0 means runtime.GOMAXPROCS)
// and returns the results in scenario order. Each scenario builds its own
// simulator, sensors and monitor, so results are identical to calling
// Run sequentially — only wall-clock time changes. Cancelling ctx (nil
// means context.Background) stops undispatched scenarios; a scenario that
// fails or panics cancels the rest, and the lowest-indexed failure is
// returned alongside the partial results.
func RunScenarios(ctx context.Context, scenarios []Scenario, workers int) ([]*ScenarioResult, error) {
	return RunScenarioBatch(BatchOptions{Workers: workers, Context: ctx}, scenarios)
}

// BatchOptions configures RunScenarioBatch.
type BatchOptions struct {
	// Workers is the pool size (<= 0 means runtime.GOMAXPROCS).
	Workers int
	// Context cancels undispatched scenarios (nil means Background).
	Context context.Context
	// Obs, when non-nil, collects pool metrics (jobs completed/failed,
	// queue wait, per-job duration) and is attached to every scenario that
	// does not already carry its own registry, aggregating sim and monitor
	// metrics across the batch. The registry is goroutine-safe.
	Obs *Registry
	// Events, when non-nil, records the runner's per-worker job spans and
	// is attached to every scenario that does not already carry its own
	// recorder; such scenarios get track scope "s<index>/" so their
	// timelines stay distinct on the shared recorder. The recorder is
	// goroutine-safe.
	Events *EventRecorder
}

// RunScenarioBatch is RunScenarios with explicit options — use it to attach
// a metrics Registry or an event recorder to the batch.
func RunScenarioBatch(opts BatchOptions, scenarios []Scenario) ([]*ScenarioResult, error) {
	return runner.Map(runner.Options{
		Workers: opts.Workers,
		Context: opts.Context,
		Obs:     opts.Obs,
		Events:  opts.Events,
	}, scenarios,
		func(ctx context.Context, i int, s Scenario) (*ScenarioResult, error) {
			if s.Obs == nil {
				s.Obs = opts.Obs
			}
			if s.Events == nil && opts.Events != nil {
				s.Events = opts.Events
				s.EventScope = fmt.Sprintf("s%d/", i)
			}
			// The pool context reaches the simulator, so cancelling the
			// batch aborts in-flight simulations, not just undispatched
			// ones.
			return s.RunContext(ctx)
		})
}

// ReadRecording parses a recording previously persisted with
// Recording.Write.
func ReadRecording(r io.Reader) (*Recording, error) { return offline.Read(r) }

// WriteComparisonReport renders a before/after Markdown comparison of two
// runs of the same scenario — one iteration of the debug loop.
func WriteComparisonReport(w io.Writer, title string, before, after *ScenarioResult) error {
	if before == nil || after == nil {
		return fmt.Errorf("adassure: comparison needs both results")
	}
	onset := -1.0
	if before.scenario.Attack != AttackNone {
		onset = before.scenario.AttackStart
	}
	return report.WriteCompare(w, report.CompareInput{
		Title:       title,
		BeforeLabel: "before",
		AfterLabel:  "after",
		Before:      before.Sim,
		After:       after.Sim,
		BeforeViol:  before.Violations,
		AfterViol:   after.Violations,
		AttackOnset: onset,
	})
}

// BuiltinTrack returns one of the built-in routes with the given speed
// limit, for use with SimConfig directly. The route's path is built once
// per process and shared by every track of that name: it is immutable, so
// concurrent runs may use it.
func BuiltinTrack(name TrackName, speedLimit float64) (*Track, error) {
	tr, err := track.Builtin(string(name), speedLimit)
	if err != nil {
		return nil, fmt.Errorf("adassure: %w", err)
	}
	return tr, nil
}

// TrackFromWaypoints builds a custom deployment route through the given
// waypoints (splined; closed loops must not repeat the first point). Use
// Track.WithZones to add per-segment speed restrictions.
func TrackFromWaypoints(name string, waypoints []Waypoint, closed bool, speedLimit float64) (*Track, error) {
	return track.FromWaypoints(name, waypoints, closed, speedLimit)
}

// StandardCampaign builds the canonical attack campaign for a class over
// the given window, for use with SimConfig directly.
func StandardCampaign(name AttackName, window AttackWindow, seed int64) (Campaign, error) {
	return attacks.Standard(attacks.Class(name), window, seed)
}

// ShuttleParams returns the default low-speed shuttle platform parameters.
func ShuttleParams() VehicleParams { return vehicle.ShuttleParams() }

// SedanParams returns the faster passenger-car parameter set.
func SedanParams() VehicleParams { return vehicle.SedanParams() }

// RunSim executes a fully custom simulation configuration.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// DefaultLimits derives assertion limits from a vehicle envelope.
func DefaultLimits(p VehicleParams) Limits { return core.DefaultLimits(p) }

// Mutation-testing types (see internal/mutate): the engine that scores the
// assertion catalog by which injected faults each assertion kills.
type (
	// MutantSpec identifies one mutant: an operator plus one parameter.
	MutantSpec = mutate.Spec
	// MutantKind classifies where a mutant interposes (controller, sensor,
	// actuator).
	MutantKind = mutate.Kind
	// MutantScore aggregates one mutant's outcome across the campaign grid.
	MutantScore = mutate.MutantScore
	// CampaignConfig is the base MutationConfig and SearchConfig embed:
	// controller, tracks, seed and run length, plus the pool size,
	// observers and cancellation.
	CampaignConfig = mutate.Campaign
	// MutationConfig describes one mutation campaign: a CampaignConfig and
	// the mutant grid.
	MutationConfig = mutate.Config
	// MutationReport is a campaign outcome: kill matrix, per-mutant
	// detection latency and the ranked surviving-mutant list.
	MutationReport = mutate.Report
)

// RunMutationCampaign executes a mutation-testing campaign: one pristine
// baseline per track, then exactly one mutant per run over the mutant ×
// track grid, fanned across a worker pool. The report is deterministic in
// the config for any worker count. The zero-value config runs the default
// grid (DefaultMutantCatalog on urban-loop + hairpin, pure-pursuit,
// seed 1, 60 s per run).
func RunMutationCampaign(cfg MutationConfig) (*MutationReport, error) { return mutate.Run(cfg) }

// DefaultMutantCatalog returns the default mutant grid: the identity
// guard, every controller mutant, then the sensor/actuator fault models.
func DefaultMutantCatalog() []MutantSpec { return mutate.DefaultCatalog() }

// MutantOps lists every mutation-operator name in sorted order.
func MutantOps() []string { return mutate.OpNames() }

// ReadMutationReport parses a report written by MutationReport.WriteJSON.
func ReadMutationReport(r io.Reader) (*MutationReport, error) { return mutate.ReadJSON(r) }

// Adversarial-search types (see internal/search): the black-box optimizer
// that maps, per track × channel, the minimal attack magnitude that evades
// the assertion catalog.
type (
	// SearchSpec is one attack channel: an operator name plus optional
	// magnitude range and activation window.
	SearchSpec = search.Spec
	// SearchWindow is a half-open [Start, End) activation window in
	// simulated seconds.
	SearchWindow = search.Window
	// SearchConfig describes one adversarial-search campaign: a
	// CampaignConfig and the search space, catalog subset, mode and budget.
	SearchConfig = search.Config
	// SearchReport is a campaign outcome: the evasion frontier with one
	// point (and minimality certificate) per track × channel.
	SearchReport = search.Report
	// SearchFrontierPoint is one converged frontier point: the largest
	// undetected magnitude and the smallest detected neighbor above it.
	SearchFrontierPoint = search.FrontierPoint
)

// RunSearch executes an adversarial-search campaign: a clean baseline per
// track, then a deterministic descent (or cross-entropy search) toward the
// minimal evading attack per channel, with candidate probes fanned across a
// worker pool. The report is deterministic in the config for any worker
// count. The zero-value config searches the default monotone channels on
// urban-loop + hairpin with pure-pursuit at seed 1.
func RunSearch(cfg SearchConfig) (*SearchReport, error) { return search.Run(cfg) }

// DefaultSearchChannels returns the default search space: the monotone
// sensor/controller channels over their full registry magnitude ranges.
func DefaultSearchChannels() []SearchSpec { return search.DefaultChannels() }

// ReadSearchReport parses a report written by SearchReport.WriteJSON.
func ReadSearchReport(r io.Reader) (*SearchReport, error) { return search.ReadJSON(r) }

// Experiments returns the evaluation experiment registry (T1–T6, F1–F6);
// each entry regenerates one table or figure of the paper reproduction.
func Experiments() []harness.Experiment { return harness.All() }

// RunExperiment regenerates one experiment by ID (e.g. "T1", "F4"). The
// scenario grid behind the experiment fans out across
// ExperimentOptions.Workers goroutines (default GOMAXPROCS); the rendered
// table is byte-identical for any worker count.
func RunExperiment(id string, opts ExperimentOptions) (*Table, error) {
	e, err := harness.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}
