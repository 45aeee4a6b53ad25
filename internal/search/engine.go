package search

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"adassure/internal/core"
	"adassure/internal/mutate"
	"adassure/internal/runner"
)

// Search modes.
const (
	// ModeDescent runs DescendMagnitude per track × channel: deterministic
	// bracketing of the evasion frontier with a minimality certificate.
	ModeDescent = "descent"
	// ModeCEM runs the cross-entropy sampler per track over magnitude ×
	// window × channel combinations, reporting the best evading candidate
	// per channel. Broader coverage, weaker certificates.
	ModeCEM = "cem"
)

// Config describes one adversarial search campaign: the shared campaign
// base plus the search space and optimizer. The zero value of every field
// is the campaign default. Events scopes each probe
// "search/<op>/<track>/<n>/" ("search/baseline/<track>/" for baselines).
type Config struct {
	mutate.Campaign
	// Channels is the search space (default DefaultChannels()). Duplicate
	// canonical IDs are rejected.
	Channels []Spec
	// Assertions optionally restricts the catalog to an explicit ID subset
	// (nil = full catalog). The S1 experiment searches the same space
	// against the weakened and full catalogs to render the frontier
	// retreat.
	Assertions []string
	// Mode is ModeDescent (default) or ModeCEM.
	Mode string
	// Budget caps oracle evaluations: per track × channel pair in descent
	// mode (default 16), per track in cem mode (default 48).
	Budget int
}

// Canonicalize validates the config and returns it with every defaultable
// field filled in: the Campaign defaults, the DefaultChannels space, mode
// descent and budget 16 (48 in cem mode). The budget must be at least 1
// and the channels valid and unique by canonical ID. Assertions must be
// catalog IDs and are kept as given. The receiver is not modified; on
// error the returned config still carries the defaults.
func (c Config) Canonicalize() (Config, error) {
	if len(c.Channels) == 0 {
		c.Channels = DefaultChannels()
	}
	if c.Mode == "" {
		c.Mode = ModeDescent
	}
	if c.Budget == 0 {
		if c.Mode == ModeCEM {
			c.Budget = 48
		} else {
			c.Budget = 16
		}
	}
	var err error
	if c.Campaign, err = c.Campaign.Canonicalize(); err != nil {
		return c, fmt.Errorf("search: %w", err)
	}
	if c.Mode != ModeDescent && c.Mode != ModeCEM {
		return c, fmt.Errorf("search: unknown mode %q (want %q or %q)", c.Mode, ModeDescent, ModeCEM)
	}
	if c.Budget < 1 {
		return c, fmt.Errorf("search: budget must be >= 1, got %d", c.Budget)
	}
	if len(c.Assertions) > 0 {
		if _, err := core.NewCatalogMonitorWith(core.CatalogConfig{IncludeGroundTruth: true}, c.Assertions); err != nil {
			return c, fmt.Errorf("search: %w", err)
		}
	}
	canon := make([]Spec, len(c.Channels))
	seen := map[string]bool{}
	for i, ch := range c.Channels {
		cc, err := ch.Canonicalize()
		if err != nil {
			return c, err
		}
		if seen[cc.ID()] {
			return c, fmt.Errorf("search: duplicate channel %q", cc.ID())
		}
		seen[cc.ID()] = true
		canon[i] = cc
	}
	c.Channels = canon
	return c, nil
}

// FrontierPoint is one converged point of the evasion frontier: per track
// × channel, the largest attack the catalog missed and its minimality
// certificate.
type FrontierPoint struct {
	Track   string `json:"track"`
	Channel string `json:"channel"`
	Point
	// DetectedBy is the kill set at the certificate magnitude (assertions
	// that fired there but not on the track baseline), in catalog order.
	DetectedBy []string `json:"detected_by,omitempty"`
	// Window is the activation window of the best evading candidate (cem
	// mode only; descent attacks are active for the whole run).
	Window *Window `json:"window,omitempty"`
}

// Report is the outcome of one search campaign: the evasion frontier. Its
// JSON encoding is canonical (struct fields and slices only), so
// byte-identical reports mean identical campaigns.
type Report struct {
	Controller string   `json:"controller"`
	Mode       string   `json:"mode"`
	Seed       int64    `json:"seed"`
	Duration   float64  `json:"duration_s"`
	Budget     int      `json:"budget"`
	Shrink     float64  `json:"shrink"`
	Ratio      float64  `json:"ratio"`
	Tracks     []string `json:"tracks"`
	Channels   []string `json:"channels"`
	// Assertions is the active catalog subset, in catalog order.
	Assertions []string `json:"assertions"`
	// Frontier has one point per track × channel, track-major in config
	// order.
	Frontier []FrontierPoint `json:"frontier"`
	// TotalEvals is the number of oracle evaluations spent (excluding the
	// per-track baselines).
	TotalEvals int `json:"total_evals"`
}

// Run executes the campaign: one pristine baseline per track (under the
// same assertion subset), then the optimizer per track × channel, fanned
// across the runner pool with index-ordered collection, so the report is
// deterministic in Config for any worker count.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.Canonicalize()
	if err != nil {
		return nil, err
	}
	setup, err := cfg.Prepare(cfg.Assertions)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	e := &engine{Setup: setup, cfg: cfg}

	// Phase 1: pristine baselines, one per track, fanned across the pool.
	baselines, err := runner.Map(e.Pool(), cfg.Tracks, func(ctx context.Context, ti int, name string) ([]string, error) {
		return e.probe(ctx, ti, "search/baseline/"+name+"/", nil, nil)
	})
	if err != nil {
		return nil, err
	}
	e.SetBaselines(baselines)

	rep := &Report{
		Controller: cfg.Controller,
		Mode:       cfg.Mode,
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
		Budget:     cfg.Budget,
		Shrink:     defaultShrink,
		Ratio:      defaultRatio,
		Tracks:     append([]string(nil), cfg.Tracks...),
		Assertions: setup.Assertions,
	}
	for _, ch := range cfg.Channels {
		rep.Channels = append(rep.Channels, ch.ID())
	}

	// Phase 2: the optimizer.
	if cfg.Mode == ModeCEM {
		err = e.runCEM(rep)
	} else {
		err = e.runDescent(rep)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range rep.Frontier {
		rep.TotalEvals += p.Evals
	}
	return rep, nil
}

// engine is one campaign's setup (pool, probe template, kill rule) and its
// search config, shared by both modes.
type engine struct {
	*mutate.Setup
	cfg Config
}

// probe runs one simulation of track ti — pristine when attack is nil,
// else with the attack installed and gated to window when that is
// non-nil — and returns the fired-assertion IDs in catalog order.
func (e *engine) probe(ctx context.Context, ti int, scope string, attack *mutate.Spec, window *Window) ([]string, error) {
	p := e.Probe(ti, scope)
	p.Mutant, p.Window = attack, window
	fired, _, err := p.Run(ctx)
	return fired, err
}

// runDescent fans DescendMagnitude over every track × channel pair. The
// descent inside a pair is sequential (each probe depends on the last),
// so determinism needs only index-ordered pair collection.
func (e *engine) runDescent(rep *Report) error {
	cfg := e.cfg
	type pair struct{ ti, ci int }
	var pairs []pair
	for ti := range cfg.Tracks {
		for ci := range cfg.Channels {
			pairs = append(pairs, pair{ti, ci})
		}
	}
	points, err := runner.Map(e.Pool(), pairs, func(ctx context.Context, _ int, p pair) (FrontierPoint, error) {
		ch := cfg.Channels[p.ci]
		evalN := 0
		killsAt := map[float64][]string{}
		oracle := func(mag float64) (bool, error) {
			evalN++
			scope := "search/" + ch.Op + "/" + cfg.Tracks[p.ti] + "/" + strconv.Itoa(evalN) + "/"
			fired, err := e.probe(ctx, p.ti, scope, &mutate.Spec{Op: ch.Op, Param: mag}, ch.Window)
			if err != nil {
				return false, err
			}
			kills := e.Kills(p.ti, fired)
			killsAt[mag] = kills
			return len(kills) > 0, nil
		}
		pt, err := DescendMagnitude(oracle, DescendOptions{
			Min: ch.Min, Max: ch.Max,
			Budget: cfg.Budget,
		})
		if err != nil {
			return FrontierPoint{}, err
		}
		fp := FrontierPoint{
			Track:   cfg.Tracks[p.ti],
			Channel: ch.Op,
			Point:   pt,
			Window:  ch.Window,
		}
		if pt.Detected > 0 {
			fp.DetectedBy = killsAt[pt.Detected]
		}
		return fp, nil
	})
	if err != nil {
		return err
	}
	rep.Frontier = points
	return nil
}

// runCEM runs the cross-entropy sampler per track: generations are
// sequential (the refit needs the previous generation's scores) and each
// generation's population is evaluated via runner.Map with index-ordered
// collection, so the report stays deterministic at any worker count.
func (e *engine) runCEM(rep *Report) error {
	cfg := e.cfg
	for ti := range cfg.Tracks {
		sampler, err := NewCEMSampler(CEMOptions{
			Specs:    cfg.Channels,
			Duration: cfg.Duration,
			Budget:   cfg.Budget,
			Seed:     cfg.Seed + int64(ti),
		})
		if err != nil {
			return err
		}
		// Per-channel running frontier across all generations.
		best := make([]FrontierPoint, len(cfg.Channels))
		for ci, ch := range cfg.Channels {
			best[ci] = FrontierPoint{
				Track:   cfg.Tracks[ti],
				Channel: ch.Op,
				Point:   Point{Status: StatusAllDetected},
			}
		}
		evalN := 0
		for g := 0; g < sampler.Generations(); g++ {
			cands := sampler.Sample()
			type outcome struct {
				kills []string
			}
			outs, err := runner.Map(e.Pool(), cands, func(ctx context.Context, i int, cand Candidate) (outcome, error) {
				ch := cfg.Channels[cand.Channel]
				scope := "search/" + ch.Op + "/" + cfg.Tracks[ti] + "/" +
					strconv.Itoa(evalN+i+1) + "/"
				fired, err := e.probe(ctx, ti, scope, &mutate.Spec{Op: ch.Op, Param: cand.Mag}, cand.Window)
				if err != nil {
					return outcome{}, err
				}
				return outcome{kills: e.Kills(ti, fired)}, nil
			})
			if err != nil {
				return err
			}
			evalN += len(cands)
			scores := make([]float64, len(cands))
			for i, cand := range cands {
				p := &best[cand.Channel]
				p.Evals++
				if len(outs[i].kills) == 0 {
					scores[i] = cand.Mag // evading: bigger is a better attack
					if cand.Mag > p.Evading {
						p.Evading, p.Window = cand.Mag, cand.Window
					}
				} else if p.Detected == 0 || cand.Mag < p.Detected {
					p.Detected, p.DetectedBy = cand.Mag, outs[i].kills
				}
			}
			sampler.Refit(cands, scores)
		}
		for ci := range best {
			p := &best[ci]
			if p.Evading > 0 && p.Detected > p.Evading {
				p.Status = StatusConverged
			} else if p.Evading > 0 {
				p.Status = StatusAllEvading
			} else if p.Detected > 0 {
				p.Status = StatusAllDetected
			} else {
				p.Status = StatusBudget // channel never sampled this campaign
			}
		}
		rep.Frontier = append(rep.Frontier, best...)
	}
	return nil
}

// WriteJSON writes the canonical JSON encoding of the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON decodes a report written by WriteJSON.
func ReadJSON(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("search: decode report: %w", err)
	}
	return &rep, nil
}

// PointFor returns the frontier point of one track × channel.
func (r *Report) PointFor(trackName, channel string) (FrontierPoint, bool) {
	for _, p := range r.Frontier {
		if p.Track == trackName && p.Channel == channel {
			return p, true
		}
	}
	return FrontierPoint{}, false
}

// WriteFrontierReport renders the evasion frontier as text: per track ×
// channel, the largest undetected attack and its minimality certificate.
// Every line with a nonzero evading magnitude is a fault class the
// catalog needs a new or tighter assertion for.
func (r *Report) WriteFrontierReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "evasion-frontier report — %s, mode %s, tracks %v, seed %d, %.0f s/run, budget %d\n",
		r.Controller, r.Mode, r.Tracks, r.Seed, r.Duration, r.Budget); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "assertions: %d active (%s … %s)\n",
		len(r.Assertions), first(r.Assertions), last(r.Assertions)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "frontier (largest undetected attack per track × channel; certificate = smallest detected neighbor):"); err != nil {
		return err
	}
	for _, p := range r.Frontier {
		evading := "none"
		if p.Evading > 0 {
			evading = fmtMag(p.Evading)
			if p.Window != nil {
				evading += fmt.Sprintf("@[%s,%s)", fmtMag(p.Window.Start), fmtMag(p.Window.End))
			}
		}
		cert := "none"
		if p.Detected > 0 {
			cert = fmtMag(p.Detected)
			if len(p.DetectedBy) > 0 {
				cert += fmt.Sprintf(" by %v", p.DetectedBy)
			}
		}
		if _, err := fmt.Fprintf(w, "  %-12s %-22s evading %-28s certificate %-28s %s, %d evals\n",
			p.Track, p.Channel, evading, cert, p.Status, p.Evals); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "total probe runs: %d (plus %d baselines)\n", r.TotalEvals, len(r.Tracks))
	return err
}

// fmtMag renders a magnitude compactly and stably.
func fmtMag(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func first(s []string) string {
	if len(s) == 0 {
		return "-"
	}
	return s[0]
}

func last(s []string) string {
	if len(s) == 0 {
		return "-"
	}
	return s[len(s)-1]
}
