package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"adassure"
	"adassure/internal/forensics"
	"adassure/internal/telemetry"
)

// Request is one scenario-execution request. The zero value of every
// field means "the scenario default", so `{}` is a valid request (a clean
// urban-loop run). Runs are fully deterministic in the canonicalized
// request, which is what makes the result cache sound.
type Request struct {
	// Track is the route name (default "urban-loop").
	Track string `json:"track,omitempty"`
	// Controller is the lateral controller (default "pure-pursuit").
	Controller string `json:"controller,omitempty"`
	// Attack is the injected attack class, or "none" (the default).
	Attack string `json:"attack,omitempty"`
	// AttackStart/AttackEnd bound the attack window in simulated seconds
	// (defaults 20/50; ignored and canonicalized to 0 when Attack is none).
	AttackStart float64 `json:"attack_start,omitempty"`
	AttackEnd   float64 `json:"attack_end,omitempty"`
	// Seed drives all stochastic components (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Duration is the simulated time in seconds (default 70, capped by the
	// server's MaxDuration).
	Duration float64 `json:"duration,omitempty"`
	// SpeedLimit of the route in m/s (default 6).
	SpeedLimit float64 `json:"speed_limit,omitempty"`
	// Guarded enables the defended stack.
	Guarded bool `json:"guarded,omitempty"`
	// ThresholdScale loosens (>1) or tightens (<1) catalog thresholds
	// (default 1).
	ThresholdScale float64 `json:"threshold_scale,omitempty"`
	// Localizer selects the fusion stack: "ekf" (default) or
	// "complementary".
	Localizer string `json:"localizer,omitempty"`
	// Assertions, when non-empty, restricts the monitor to these catalog
	// assertion IDs (canonicalized to sorted unique order).
	Assertions []string `json:"assertions,omitempty"`
	// Bundles requests one forensic bundle per violation episode in the
	// response.
	Bundles bool `json:"bundles,omitempty"`
	// BundleHalfWindow is the bundle evidence half-window in seconds
	// (default 2 when Bundles is set; canonicalized to 0 otherwise).
	BundleHalfWindow float64 `json:"bundle_half_window,omitempty"`
}

// Canonicalize validates the request and fills every defaultable field
// with its explicit value, so equivalent requests collapse onto one cache
// key. The scenario fields are canonicalized by adassure.Scenario; the
// request adds the server's duration cap (maxDuration <= 0 means no cap)
// and the bundle fields. The receiver is not mutated.
func (r Request) Canonicalize(maxDuration float64) (Request, error) {
	scn, err := r.Scenario().Canonicalize()
	if err != nil {
		return r, err
	}
	if maxDuration > 0 && scn.Duration > maxDuration {
		return r, fmt.Errorf("duration %g s exceeds the server cap of %g s", scn.Duration, maxDuration)
	}
	out := Request{
		Track:          string(scn.Track),
		Controller:     string(scn.Controller),
		Attack:         string(scn.Attack),
		AttackStart:    scn.AttackStart,
		AttackEnd:      scn.AttackEnd,
		Seed:           scn.Seed,
		Duration:       scn.Duration,
		SpeedLimit:     scn.SpeedLimit,
		Guarded:        scn.Guarded,
		ThresholdScale: scn.ThresholdScale,
		Localizer:      scn.Localizer,
		Assertions:     scn.Assertions,
		Bundles:        r.Bundles,
	}
	if r.Bundles {
		out.BundleHalfWindow = r.BundleHalfWindow
		if out.BundleHalfWindow == 0 {
			out.BundleHalfWindow = forensics.DefaultHalfWindow
		}
		if math.IsNaN(out.BundleHalfWindow) || math.IsInf(out.BundleHalfWindow, 0) || out.BundleHalfWindow < 0 {
			return r, fmt.Errorf("bundle_half_window must be non-negative and finite, got %v", out.BundleHalfWindow)
		}
	}
	return out, nil
}

// Key returns the content address of a canonicalized request: the SHA-256
// of its canonical JSON encoding. Two requests with the same key ask for
// byte-identical work.
func (r Request) Key() string { return contentKey("", r) }

// contentKey is the content address of a canonical request of any keyed
// kind: the hex SHA-256 of its JSON encoding behind the kind's namespace
// prefix. The prefix ("mutate\n", "search\n") keeps a campaign from
// colliding with another kind in the shared cache and store; /v1/run keys
// have none, so they hash the encoding alone and cost no extra copy.
func contentKey(namespace string, canonical any) string {
	// Struct field order is fixed and map-free, so encoding/json is a
	// canonical encoder here.
	b, err := json.Marshal(canonical)
	if err != nil {
		// A canonical request holds only finite floats, strings, bools and
		// ints; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshal canonical %T: %v", canonical, err))
	}
	if namespace != "" {
		b = append([]byte(namespace), b...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Scenario converts a canonicalized request into the façade scenario it
// executes.
func (r Request) Scenario() adassure.Scenario {
	return adassure.Scenario{
		Track:          adassure.TrackName(r.Track),
		Controller:     adassure.ControllerName(r.Controller),
		Attack:         adassure.AttackName(r.Attack),
		AttackStart:    r.AttackStart,
		AttackEnd:      r.AttackEnd,
		Seed:           r.Seed,
		Duration:       r.Duration,
		SpeedLimit:     r.SpeedLimit,
		Guarded:        r.Guarded,
		ThresholdScale: r.ThresholdScale,
		Localizer:      r.Localizer,
		Assertions:     r.Assertions,
		RecordFrames:   r.Bundles,
		RecordTrace:    r.Bundles,
	}
}

// execute runs the scenario; its phase spans (sim+monitor, diagnosis)
// hang off ex. The encoded body's trace_id names ex's trace — the
// executing request's.
func (r Request) execute(ctx context.Context, s *Server, ex *telemetry.Span) (func() ([]byte, error), error) {
	scn := r.Scenario()
	scn.Obs = s.reg // aggregate sim/monitor metrics across all runs
	scn.Span = ex
	out, err := scn.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("run scenario: %w", err)
	}
	if ex.Enabled() {
		ex.SetInt("violations", int64(len(out.Violations)))
		ex.SetInt("steps", int64(out.Sim.Steps))
	}
	traceID := ex.TraceID().String()
	return func() ([]byte, error) {
		body, err := buildResponse(r, out, traceID)
		if err != nil {
			return nil, fmt.Errorf("encode response: %w", err)
		}
		return body, nil
	}, nil
}
