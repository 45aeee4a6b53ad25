package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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
// equivalent campaigns collapse onto one cache key. The receiver is not
// mutated.
func (r SearchRequest) Canonicalize(maxDuration float64) (SearchRequest, error) {
	if r.Controller == "" {
		r.Controller = "pure-pursuit"
	}
	if len(r.Tracks) == 0 {
		r.Tracks = []string{"urban-loop", "hairpin"}
	}
	if len(r.Channels) == 0 {
		r.Channels = search.DefaultChannels()
	}
	if r.Mode == "" {
		r.Mode = search.ModeDescent
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Budget == 0 {
		if r.Mode == search.ModeCEM {
			r.Budget = 48
		} else {
			r.Budget = 16
		}
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
	if r.Mode != search.ModeDescent && r.Mode != search.ModeCEM {
		return r, fmt.Errorf("unknown mode %q (want %q or %q)", r.Mode, search.ModeDescent, search.ModeCEM)
	}
	if !finite(r.Duration) || r.Duration <= 0 {
		return r, fmt.Errorf("duration must be a positive finite number of seconds, got %v", r.Duration)
	}
	if maxDuration > 0 && r.Duration > maxDuration {
		return r, fmt.Errorf("duration %g s exceeds the server cap of %g s", r.Duration, maxDuration)
	}
	if r.Budget < 1 {
		return r, fmt.Errorf("budget must be >= 1, got %d", r.Budget)
	}
	canon := make([]search.Spec, len(r.Channels))
	seen := map[string]bool{}
	for i, ch := range r.Channels {
		cc, err := ch.Canonicalize()
		if err != nil {
			return r, err
		}
		if seen[cc.ID()] {
			return r, fmt.Errorf("duplicate channel %q", cc.ID())
		}
		seen[cc.ID()] = true
		canon[i] = cc
	}
	r.Channels = canon
	evals := r.Budget * len(r.Tracks)
	if r.Mode == search.ModeDescent {
		evals *= len(r.Channels)
	}
	if evals > maxSearchEvals {
		return r, fmt.Errorf("search of %d probe runs exceeds the cap of %d (lower the budget, channels or tracks)",
			evals, maxSearchEvals)
	}
	return r, nil
}

// Key returns the content address of a canonicalized search request. The
// encoding is namespaced so a search can never collide with a /v1/run
// scenario or a /v1/mutate campaign in the shared cache.
func (r SearchRequest) Key() string {
	b, err := json.Marshal(r)
	if err != nil {
		// A canonical SearchRequest holds only finite floats, strings and
		// ints; Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshal canonical search request: %v", err))
	}
	sum := sha256.Sum256(append([]byte("search\n"), b...))
	return hex.EncodeToString(sum[:])
}

// Config converts a canonicalized request into the campaign it executes.
// Workers is left at the engine default: one admission slot owns the
// campaign, and the engine fans its (bounded) probes across its own pool —
// the report is byte-identical either way.
func (r SearchRequest) Config() search.Config {
	return search.Config{
		Controller: r.Controller,
		Tracks:     r.Tracks,
		Channels:   r.Channels,
		Assertions: r.Assertions,
		Mode:       r.Mode,
		Seed:       r.Seed,
		Budget:     r.Budget,
		Duration:   r.Duration,
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
