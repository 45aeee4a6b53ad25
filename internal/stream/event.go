package stream

import (
	"adassure/internal/core"
	"adassure/internal/diagnosis"
)

// EventKind discriminates the typed events a Session emits.
type EventKind string

// Event kinds, in the order a subscriber typically sees them.
const (
	// EventViolationOpened fires when the monitor raises a debounced
	// episode; the event carries the violation with Duration still zero.
	EventViolationOpened EventKind = "violation-opened"
	// EventViolationClosed fires when an episode's window runs fully
	// clean; the violation now carries its final duration.
	EventViolationClosed EventKind = "violation-closed"
	// EventDiagnosis follows every violation-closed event with the
	// rolling root-cause ranking over everything observed so far.
	EventDiagnosis EventKind = "diagnosis"
	// EventHeartbeat fires every Config.Heartbeat ingested frames.
	EventHeartbeat EventKind = "heartbeat"
	// EventFrameRejected reports one malformed input line that was
	// charged against the session's error budget.
	EventFrameRejected EventKind = "frame-rejected"
	// EventSessionClosed is the last event of a session: the close
	// reason, final statistics and final hypothesis ranking.
	EventSessionClosed EventKind = "session-closed"
)

// Session close reasons carried by EventSessionClosed.
const (
	ReasonEOF      = "eof"            // input stream ended normally
	ReasonDrain    = "drain"          // server shutting down gracefully
	ReasonBudget   = "error-budget"   // malformed-line budget exhausted
	ReasonDuration = "duration-limit" // session exceeded its max duration
	ReasonClient   = "client"         // client went away mid-stream
)

// Event is one entry of a session's NDJSON event stream. The JSON field
// order is fixed by the struct, all maps marshal with sorted keys, and no
// wall-clock values appear — encoding an event stream is deterministic in
// the ingested frames, which is what lets the service golden-test whole
// transcripts and the differential suite compare streamed output against
// batch output byte for byte.
type Event struct {
	Kind EventKind `json:"event"`
	// Seq numbers delivered events from 1; a subscriber can detect a gap.
	Seq int64 `json:"seq"`
	// T is the frame time the event refers to (last ingested frame time
	// for heartbeat/rejected/closed events).
	T float64 `json:"t"`
	// Frames is the ingest count (heartbeat and session-closed events).
	Frames int64 `json:"frames,omitempty"`
	// Violations is the episode count so far (heartbeat events).
	Violations int64 `json:"violations,omitempty"`
	// OpenEpisodes counts episodes currently open (heartbeat events).
	OpenEpisodes int64 `json:"open_episodes,omitempty"`
	// Violation carries the episode for violation-opened/-closed events.
	Violation *WireViolation `json:"violation,omitempty"`
	// Hypotheses is the rolling ranking (diagnosis and session-closed).
	Hypotheses []WireHypothesis `json:"hypotheses,omitempty"`
	// Reject describes the bad line for frame-rejected events.
	Reject *WireReject `json:"reject,omitempty"`
	// Reason and Code close out the session (session-closed events); Code
	// is an HTTP-style status for terminal limit breaches, 0 otherwise.
	Reason string `json:"reason,omitempty"`
	Code   int    `json:"code,omitempty"`
	// Stats summarises the whole session (session-closed events).
	Stats *Stats `json:"stats,omitempty"`
}

// WireViolation is the JSON form of one raised assertion episode, shared
// by streamed events and the batch service response (service.Violation),
// so a client can compare streamed and batch results structurally.
type WireViolation struct {
	AssertionID string             `json:"assertion_id"`
	Name        string             `json:"name"`
	Severity    string             `json:"severity"`
	T           float64            `json:"t"`
	FirstBreach float64            `json:"first_breach"`
	Duration    float64            `json:"duration,omitempty"`
	Message     string             `json:"message"`
	Evidence    map[string]float64 `json:"evidence,omitempty"`
}

// WireHypothesis is the JSON form of one ranked root-cause candidate,
// shared with the batch service response (service.Hypothesis).
type WireHypothesis struct {
	Cause      string  `json:"cause"`
	Confidence float64 `json:"confidence"`
	Rationale  string  `json:"rationale"`
}

// WireReject describes one rejected input line.
type WireReject struct {
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	// BudgetLeft is how many further bad lines the session will tolerate.
	BudgetLeft int `json:"budget_left"`
}

// WireViolationOf converts a monitor violation to its wire form, the one
// the batch service response also uses: non-finite evidence is sanitized
// (core.SanitizeEvidence) and empty evidence is omitted.
func WireViolationOf(v core.Violation) WireViolation {
	ev := core.SanitizeEvidence(v.Evidence)
	if len(ev) == 0 {
		ev = nil
	}
	return WireViolation{
		AssertionID: v.AssertionID,
		Name:        v.Name,
		Severity:    v.Severity.String(),
		T:           v.T,
		FirstBreach: v.FirstBreach,
		Duration:    v.Duration,
		Message:     v.Message,
		Evidence:    ev,
	}
}

// WireHypothesesOf converts a ranked hypothesis list to its wire form.
func WireHypothesesOf(hs []diagnosis.Hypothesis) []WireHypothesis {
	if len(hs) == 0 {
		return nil
	}
	out := make([]WireHypothesis, len(hs))
	for i, h := range hs {
		out[i] = WireHypothesis{
			Cause:      string(h.Cause),
			Confidence: h.Confidence,
			Rationale:  h.Rationale,
		}
	}
	return out
}
