package service

import (
	"encoding/json"
	"fmt"

	"adassure"
	"adassure/internal/forensics"
	"adassure/internal/stream"
)

// ResponseSchema pins the response wire format.
const ResponseSchema = "adassure/run/v1"

// Response is the evidence chain of one scenario execution: the run
// summary, the monitor's violation record, the ranked diagnosis and —
// when requested — the per-episode forensic bundles. The body is built
// deterministically from the simulation output, so a cached response is
// byte-identical to a fresh one.
type Response struct {
	Schema string `json:"schema"`
	// Request echoes the canonicalized request the response answers.
	Request Request `json:"request"`
	// Key is the content address of the request (the cache key).
	Key string `json:"key"`
	// TraceID names the trace of the run that produced these bytes. A
	// cached or coalesced response keeps the executing run's trace ID (the
	// bytes are shared), while the X-Adassure-Trace header always carries
	// the current request's own trace.
	TraceID    string             `json:"trace_id,omitempty"`
	Summary    RunSummary         `json:"summary"`
	Violations []Violation        `json:"violations,omitempty"`
	Hypotheses []Hypothesis       `json:"hypotheses,omitempty"`
	Bundles    []forensics.Bundle `json:"bundles,omitempty"`
}

// RunSummary condenses the simulation outcome.
type RunSummary struct {
	SimTime       float64 `json:"sim_time"`
	Steps         int     `json:"steps"`
	MaxTrueCTE    float64 `json:"max_true_cte"`
	RMSTrueCTE    float64 `json:"rms_true_cte"`
	MaxEstCTE     float64 `json:"max_est_cte"`
	ProgressTotal float64 `json:"progress_total"`
	Laps          int     `json:"laps"`
	Finished      bool    `json:"finished,omitempty"`
	Diverged      bool    `json:"diverged,omitempty"`
	FallbackTime  float64 `json:"fallback_time,omitempty"`
	// Detected reports whether any violation was raised at or after the
	// attack onset (always false for clean runs).
	Detected bool `json:"detected"`
	// DetectionLatency is seconds from attack onset to the first
	// post-onset violation (absent when not detected).
	DetectionLatency float64 `json:"detection_latency,omitempty"`
}

// Violation is the wire form of one raised assertion episode, the same
// one streamed events carry.
type Violation = stream.WireViolation

// Hypothesis is the wire form of one ranked root-cause candidate.
type Hypothesis = stream.WireHypothesis

// buildResponse assembles the response for a completed run and marshals
// it once; the returned bytes are what the cache stores and every waiter
// receives. traceID is the executing run's trace (empty when tracing is
// off, which keeps fresh-vs-fresh bodies byte-identical — with tracing on
// the trace_id field is the one deliberately run-specific part of the
// body).
func buildResponse(req Request, out *adassure.ScenarioResult, traceID string) ([]byte, error) {
	resp := Response{
		Schema:  ResponseSchema,
		Request: req,
		Key:     req.Key(),
		TraceID: traceID,
		Summary: RunSummary{
			SimTime:       out.Sim.SimTime,
			Steps:         out.Sim.Steps,
			MaxTrueCTE:    out.Sim.MaxTrueCTE,
			RMSTrueCTE:    out.Sim.RMSTrueCTE,
			MaxEstCTE:     out.Sim.MaxEstCTE,
			ProgressTotal: out.Sim.ProgressTotal,
			Laps:          out.Sim.Laps,
			Finished:      out.Sim.Finished,
			Diverged:      out.Sim.Diverged,
			FallbackTime:  out.Sim.FallbackTime,
		},
	}
	if req.Attack != "none" {
		for _, v := range out.Violations {
			if v.T >= req.AttackStart {
				resp.Summary.Detected = true
				resp.Summary.DetectionLatency = v.T - req.AttackStart
				break
			}
		}
	}
	for _, v := range out.Violations {
		resp.Violations = append(resp.Violations, stream.WireViolationOf(v))
	}
	resp.Hypotheses = stream.WireHypothesesOf(out.Hypotheses)
	if req.Bundles {
		resp.Bundles = buildBundles(req, out, traceID)
	}
	return json.Marshal(&resp)
}

// buildBundles assembles the per-episode forensic bundles directly (not
// via ScenarioResult.ForensicBundles): the served variant deliberately
// omits the obs-registry eval history, which is wall-clock data of the
// process rather than of the request — including it would make cached
// and fresh responses differ byte-wise and break cache soundness. All
// remaining sections (trace slice, frames, attack state, hypotheses) are
// deterministic in the request.
func buildBundles(req Request, out *adassure.ScenarioResult, traceID string) []forensics.Bundle {
	var attack *forensics.AttackInfo
	if req.Attack != "none" {
		attack = &forensics.AttackInfo{
			Name:  req.Attack,
			Class: req.Attack,
			Start: req.AttackStart,
			End:   req.AttackEnd,
		}
	}
	return forensics.Build(forensics.Input{
		TraceID: traceID,
		Scenario: map[string]string{
			"track":      req.Track,
			"controller": req.Controller,
			"attack":     req.Attack,
			"seed":       fmt.Sprintf("%d", req.Seed),
			"guarded":    fmt.Sprintf("%v", req.Guarded),
		},
		Violations: out.Violations,
		Trace:      out.Sim.Trace,
		Frames:     out.Sim.Frames,
		Attack:     attack,
		Hypotheses: out.Hypotheses,
		HalfWindow: req.BundleHalfWindow,
	})
}
