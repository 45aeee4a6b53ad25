package service

import (
	"bytes"
	"context"
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
// equivalent campaigns collapse onto one cache key. The campaign fields
// are canonicalized by mutate.Config; the request adds the server's
// duration cap and the grid cap. The receiver is not mutated.
func (r MutateRequest) Canonicalize(maxDuration float64) (MutateRequest, error) {
	// The server cap is checked before the campaign's own errors, so a
	// request over both it and sim.MaxDuration names the cap it broke;
	// Canonicalize returns the defaulted config even when it rejects it.
	cfg, err := r.Config().Canonicalize()
	if maxDuration > 0 && cfg.Duration > maxDuration {
		return r, fmt.Errorf("duration %g s exceeds the server cap of %g s", cfg.Duration, maxDuration)
	}
	if err != nil {
		return r, err
	}
	if runs := len(cfg.Tracks) * (len(cfg.Mutants) + 1); runs > maxCampaignRuns {
		return r, fmt.Errorf("campaign grid of %d runs exceeds the cap of %d (fewer mutants or tracks)",
			runs, maxCampaignRuns)
	}
	return MutateRequest{
		Controller: cfg.Controller,
		Tracks:     cfg.Tracks,
		Mutants:    cfg.Mutants,
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
	}, nil
}

// Key returns the content address of a canonicalized campaign request. The
// encoding is namespaced so a campaign can never collide with a /v1/run
// scenario in the shared cache.
func (r MutateRequest) Key() string { return contentKey("mutate\n", r) }

// Config converts a canonicalized request into the campaign it executes.
// Workers is left at the engine default: one admission slot owns the
// campaign, and the engine fans its (bounded) grid across its own pool —
// the report is byte-identical either way.
func (r MutateRequest) Config() mutate.Config {
	return mutate.Config{
		Campaign: mutate.Campaign{Controller: r.Controller, Tracks: r.Tracks, Seed: r.Seed, Duration: r.Duration},
		Mutants:  r.Mutants,
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
