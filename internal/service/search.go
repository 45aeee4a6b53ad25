package service

import (
	"bytes"
	"context"
	"fmt"

	"adassure/internal/mutate"
	"adassure/internal/search"
	"adassure/internal/telemetry"
)

// SearchRequest is one adversarial-search campaign for POST /v1/search.
// The zero value of every field means "the campaign default", so `{}`
// descends the default channels against the full catalog. Campaigns are
// deterministic in the canonicalized request, so they ride the same keyed
// pipeline as /v1/run and /v1/mutate: result cache, persistent store and
// single-flight coalescing.
type SearchRequest struct {
	// Controller is the lateral controller under test (default
	// "pure-pursuit").
	Controller string `json:"controller,omitempty"`
	// Tracks are the route names (default urban-loop + hairpin).
	Tracks []string `json:"tracks,omitempty"`
	// Channels is the search space (default: the monotone channel set).
	// Each entry is an operator name plus optional magnitude range and
	// activation window.
	Channels []search.Spec `json:"channels,omitempty"`
	// Assertions optionally restricts the catalog to an ID subset.
	Assertions []string `json:"assertions,omitempty"`
	// Mode is "descent" (default) or "cem".
	Mode string `json:"mode,omitempty"`
	// Seed drives all stochastic components (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Budget caps oracle evaluations per track × channel (descent) or per
	// track (cem); default 16/48, capped by maxSearchEvals.
	Budget int `json:"budget,omitempty"`
	// Duration is the simulated seconds per probe run (default 60, capped
	// by the server's MaxDuration).
	Duration float64 `json:"duration,omitempty"`
}

// maxSearchEvals bounds the total oracle evaluations one request may ask
// for, keeping a single admission slot's work comparable to one campaign.
const maxSearchEvals = 128

// Canonicalize validates the request and fills every defaultable field, so
// equivalent campaigns collapse onto one cache key. The campaign fields
// are canonicalized by search.Config; the request adds the server's
// duration cap and the probe-run cap. The receiver is not mutated.
func (r SearchRequest) Canonicalize(maxDuration float64) (SearchRequest, error) {
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
	evals := cfg.Budget * len(cfg.Tracks)
	if cfg.Mode == search.ModeDescent {
		evals *= len(cfg.Channels)
	}
	if evals > maxSearchEvals {
		return r, fmt.Errorf("search of %d probe runs exceeds the cap of %d (lower the budget, channels or tracks)",
			evals, maxSearchEvals)
	}
	return SearchRequest{
		Controller: cfg.Controller,
		Tracks:     cfg.Tracks,
		Channels:   cfg.Channels,
		Assertions: cfg.Assertions,
		Mode:       cfg.Mode,
		Seed:       cfg.Seed,
		Budget:     cfg.Budget,
		Duration:   cfg.Duration,
	}, nil
}

// Key returns the content address of a canonicalized search request. The
// encoding is namespaced so a search can never collide with a /v1/run
// scenario or a /v1/mutate campaign in the shared cache.
func (r SearchRequest) Key() string { return contentKey("search\n", r) }

// Config converts a canonicalized request into the campaign it executes.
// Workers is left at the engine default: one admission slot owns the
// campaign, and the engine fans its (bounded) probes across its own pool —
// the report is byte-identical either way.
func (r SearchRequest) Config() search.Config {
	return search.Config{
		Campaign:   mutate.Campaign{Controller: r.Controller, Tracks: r.Tracks, Seed: r.Seed, Duration: r.Duration},
		Channels:   r.Channels,
		Assertions: r.Assertions,
		Mode:       r.Mode,
		Budget:     r.Budget,
	}
}

// execute runs the campaign; the returned step encodes its report.
func (r SearchRequest) execute(ctx context.Context, s *Server, _ *telemetry.Span) (func() ([]byte, error), error) {
	cfg := r.Config()
	cfg.Context = ctx
	cfg.Obs = s.reg // aggregate sim/monitor metrics across all probe runs
	rep, err := search.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("run search: %w", err)
	}
	return func() ([]byte, error) {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("encode report: %w", err)
		}
		return buf.Bytes(), nil
	}, nil
}
