package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"adassure/internal/mutate"
	"adassure/internal/telemetry"
)

// MutateRequest is one mutation-campaign request for POST /v1/mutate. The
// zero value of every field means "the campaign default", so `{}` runs the
// full default grid. Campaigns are deterministic in the canonicalized
// request, so they ride the same keyed pipeline as /v1/run: result cache,
// persistent store and single-flight coalescing.
type MutateRequest struct {
	// Controller is the lateral controller under test (default
	// "pure-pursuit").
	Controller string `json:"controller,omitempty"`
	// Tracks are the route names (default urban-loop + hairpin).
	Tracks []string `json:"tracks,omitempty"`
	// Mutants is the grid (default: the full mutant catalog). Each entry is
	// an operator name plus optional parameter; see GET /v1/catalog.
	Mutants []mutate.Spec `json:"mutants,omitempty"`
	// Seed drives all stochastic components (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Duration is the simulated seconds per run (default 60, capped by the
	// server's MaxDuration).
	Duration float64 `json:"duration,omitempty"`
}

// maxCampaignRuns bounds the (mutants+1) × tracks grid one request may ask
// for, keeping a single admission slot's work comparable to one /v1/run.
const maxCampaignRuns = 64

// Canonicalize validates the request and fills every defaultable field, so
// equivalent campaigns collapse onto one cache key. The receiver is not
// mutated.
func (r MutateRequest) Canonicalize(maxDuration float64) (MutateRequest, error) {
	if r.Controller == "" {
		r.Controller = "pure-pursuit"
	}
	if len(r.Tracks) == 0 {
		r.Tracks = []string{"urban-loop", "hairpin"}
	}
	if len(r.Mutants) == 0 {
		r.Mutants = mutate.DefaultCatalog()
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Duration == 0 {
		r.Duration = 60
	}

	if !contains(validControllers, r.Controller) {
		return r, fmt.Errorf("unknown controller %q (have %v)", r.Controller, validControllers)
	}
	for _, tr := range r.Tracks {
		if !contains(validTracks, tr) {
			return r, fmt.Errorf("unknown track %q (have %v)", tr, validTracks)
		}
	}
	if !finite(r.Duration) || r.Duration <= 0 {
		return r, fmt.Errorf("duration must be a positive finite number of seconds, got %v", r.Duration)
	}
	if maxDuration > 0 && r.Duration > maxDuration {
		return r, fmt.Errorf("duration %g s exceeds the server cap of %g s", r.Duration, maxDuration)
	}
	canon := make([]mutate.Spec, len(r.Mutants))
	seen := map[string]bool{}
	for i, m := range r.Mutants {
		cm, err := m.Canonicalize()
		if err != nil {
			return r, err
		}
		if seen[cm.ID()] {
			return r, fmt.Errorf("duplicate mutant %q in grid", cm.ID())
		}
		seen[cm.ID()] = true
		canon[i] = cm
	}
	r.Mutants = canon
	if runs := len(r.Tracks) * (len(r.Mutants) + 1); runs > maxCampaignRuns {
		return r, fmt.Errorf("campaign grid of %d runs exceeds the cap of %d (fewer mutants or tracks)",
			runs, maxCampaignRuns)
	}
	return r, nil
}

// Key returns the content address of a canonicalized campaign request. The
// encoding is namespaced so a campaign can never collide with a /v1/run
// scenario in the shared cache.
func (r MutateRequest) Key() string {
	b, err := json.Marshal(r)
	if err != nil {
		// A canonical MutateRequest holds only finite floats, strings and
		// ints; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshal canonical mutate request: %v", err))
	}
	sum := sha256.Sum256(append([]byte("mutate\n"), b...))
	return hex.EncodeToString(sum[:])
}

// Config converts a canonicalized request into the campaign it executes.
// Workers is left at the engine default: one admission slot owns the
// campaign, and the engine fans its (bounded) grid across its own pool —
// the report is byte-identical either way.
func (r MutateRequest) Config() mutate.Config {
	return mutate.Config{
		Controller: r.Controller,
		Tracks:     r.Tracks,
		Mutants:    r.Mutants,
		Seed:       r.Seed,
		Duration:   r.Duration,
	}
}

// execute runs the campaign; the returned step encodes its report.
func (r MutateRequest) execute(ctx context.Context, s *Server, _ *telemetry.Span) (func() ([]byte, error), error) {
	cfg := r.Config()
	cfg.Context = ctx
	cfg.Obs = s.reg // aggregate sim/monitor metrics across all runs
	rep, err := mutate.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("run campaign: %w", err)
	}
	return func() ([]byte, error) {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("encode report: %w", err)
		}
		return buf.Bytes(), nil
	}, nil
}
