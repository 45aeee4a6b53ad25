package mutate

import (
	"context"
	"fmt"
	"slices"

	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/obs"
	"adassure/internal/runner"
	"adassure/internal/sim"
	"adassure/internal/track"
)

// Campaign is the base both campaign configs embed: this package's
// mutation grid and internal/search's evasion search. It names what every
// run of the campaign shares and how the runs are fanned out. The zero
// value of every field is the campaign default.
type Campaign struct {
	// Controller is the lateral controller under test (default
	// "pure-pursuit").
	Controller string
	// Tracks are the route names from the track catalog (default
	// urban-loop + hairpin: one nominal route where the baseline runs
	// clean and one demanding route that stresses marginal faults).
	Tracks []string
	// Seed drives all stochastic components of every run (default 1).
	Seed int64
	// Duration is the simulated seconds per run (default
	// sim.DefaultDuration, 60).
	Duration float64
	// Workers sizes the runner pool (default GOMAXPROCS). The report is
	// byte-identical for any value.
	Workers int
	// Obs, when non-nil, aggregates runtime metrics across every run of
	// the campaign (sim.runs counts every probe plus one baseline per
	// track).
	Obs *obs.Registry
	// Events, when non-nil, records every run's timeline, each under its
	// own scope (see the campaign's Run).
	Events *events.Recorder
	// Context, when non-nil, cancels the campaign early.
	Context context.Context
}

// Canonicalize validates the base and returns it with every defaultable
// field filled in: controller pure-pursuit, tracks urban-loop + hairpin,
// seed 1 and sim.DefaultDuration per run. Controller and track names must
// be in control.Names and track.BuiltinNames and the duration in
// (0, sim.MaxDuration]. Errors carry no package prefix; the embedding
// config adds its own. The receiver is not modified; on error the returned
// base still carries the defaults.
func (c Campaign) Canonicalize() (Campaign, error) {
	if c.Controller == "" {
		c.Controller = "pure-pursuit"
	}
	if len(c.Tracks) == 0 {
		c.Tracks = []string{"urban-loop", "hairpin"}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = sim.DefaultDuration
	}
	if !slices.Contains(control.Names(), c.Controller) {
		return c, fmt.Errorf("unknown controller %q (have %v)", c.Controller, control.Names())
	}
	for _, tr := range c.Tracks {
		if !slices.Contains(track.BuiltinNames(), tr) {
			return c, fmt.Errorf("unknown track %q (have %v)", tr, track.BuiltinNames())
		}
	}
	if !(c.Duration > 0 && c.Duration <= sim.MaxDuration) {
		return c, fmt.Errorf("duration must be in (0, %g] s, got %g", float64(sim.MaxDuration), c.Duration)
	}
	return c, nil
}

// Setup is a canonical campaign made ready to run: its tracks resolved and
// its catalog order pinned. Once SetBaselines has recorded each track's
// baseline, Kills applies the kill rule every campaign scores by.
type Setup struct {
	Campaign
	// Assertions is the active catalog in catalog order: the report's
	// column order, and the order every fired and kill list keeps.
	Assertions []string
	tracks     []*track.Track
	baseline   []map[string]bool
}

// Prepare resolves the tracks of a canonical campaign and pins the catalog
// order of the assertion subset its probes monitor (nil: the whole
// catalog).
func (c Campaign) Prepare(assertions []string) (*Setup, error) {
	mon, err := core.NewCatalogMonitorWith(core.CatalogConfig{IncludeGroundTruth: true}, assertions)
	if err != nil {
		return nil, err
	}
	s := &Setup{Campaign: c, Assertions: mon.AssertionIDs()}
	for _, name := range c.Tracks {
		tr, err := track.Builtin(name, track.DefaultSpeedLimit)
		if err != nil {
			return nil, err
		}
		s.tracks = append(s.tracks, tr)
	}
	return s, nil
}

// Pool is the runner configuration of every batch the campaign fans out.
func (s *Setup) Pool() runner.Options {
	return runner.Options{Workers: s.Workers, Context: s.Context, Obs: s.Obs, Events: s.Events}
}

// Probe returns the pristine run of track ti under the campaign's
// controller, seed, duration and assertion subset, its timeline recorded
// under scope. The caller installs the mutant or attack.
func (s *Setup) Probe(ti int, scope string) Probe {
	return Probe{
		Track:      s.tracks[ti],
		Controller: s.Controller,
		Seed:       s.Seed,
		Duration:   s.Duration,
		Assertions: s.Assertions,
		Obs:        s.Obs,
		Events:     s.Events,
		EventScope: scope,
	}
}

// SetBaselines records the fired set of each track's pristine run,
// indexed like Tracks.
func (s *Setup) SetBaselines(fired [][]string) {
	s.baseline = make([]map[string]bool, len(fired))
	for ti, ids := range fired {
		s.baseline[ti] = make(map[string]bool, len(ids))
		for _, id := range ids {
			s.baseline[ti][id] = true
		}
	}
}

// Kill reports whether assertion id firing on track ti is a kill: it did
// not fire on that track's baseline.
func (s *Setup) Kill(ti int, id string) bool { return !s.baseline[ti][id] }

// Kills applies the kill rule to one run's fired set on track ti: fired
// minus the track's baseline, in fired's order (catalog order for
// Probe.Run's). These are the detections attributable to the fault rather
// than to the clean run.
func (s *Setup) Kills(ti int, fired []string) []string {
	var out []string
	for _, id := range fired {
		if s.Kill(ti, id) {
			out = append(out, id)
		}
	}
	return out
}
