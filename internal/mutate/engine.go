package mutate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/obs"
	"adassure/internal/runner"
	"adassure/internal/sim"
	"adassure/internal/track"
)

// Config describes one mutation campaign. The zero value of every field is
// the campaign default.
type Config struct {
	// Controller is the lateral controller under test (default
	// "pure-pursuit").
	Controller string
	// Tracks are the route names from the track catalog (default
	// urban-loop + hairpin: one nominal route where the baseline runs
	// clean and one demanding route that stresses marginal mutants).
	Tracks []string
	// Mutants is the grid (default DefaultCatalog()). Duplicate canonical
	// IDs are rejected.
	Mutants []Spec
	// Seed drives all stochastic components of every run (default 1).
	Seed int64
	// Duration is the simulated seconds per run (default 60).
	Duration float64
	// Workers sizes the runner pool (default GOMAXPROCS). The report is
	// byte-identical for any value.
	Workers int
	// Obs, when non-nil, aggregates runtime metrics across every run of
	// the campaign (sim.runs counts one per grid cell plus one baseline
	// per track).
	Obs *obs.Registry
	// Events, when non-nil, records every run's timeline; tracks are
	// scoped "<mutantID>/<track>/" ("baseline/<track>/" for baselines) so
	// each cell's violation episodes stay distinct.
	Events *events.Recorder
	// Progress, when non-nil, receives (done, total) run counts.
	Progress func(done, total int)
	// Context, when non-nil, cancels the campaign early.
	Context context.Context
}

// Canonicalize validates the config and returns it with every defaultable
// field filled in: controller pure-pursuit, tracks urban-loop + hairpin,
// the DefaultCatalog grid, seed 1 and 60 s per run. Controller and track
// names must be in control.Names and track.BuiltinNames, the duration
// in (0, sim.MaxDuration], and the mutants valid and unique by canonical ID.
// The receiver is not modified; on error the returned config still carries
// the defaults.
func (c Config) Canonicalize() (Config, error) {
	if c.Controller == "" {
		c.Controller = "pure-pursuit"
	}
	if len(c.Tracks) == 0 {
		c.Tracks = []string{"urban-loop", "hairpin"}
	}
	if len(c.Mutants) == 0 {
		c.Mutants = DefaultCatalog()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration == 0 {
		c.Duration = 60
	}
	if !slices.Contains(control.Names(), c.Controller) {
		return c, fmt.Errorf("mutate: unknown controller %q (have %v)", c.Controller, control.Names())
	}
	for _, tr := range c.Tracks {
		if !slices.Contains(track.BuiltinNames(), tr) {
			return c, fmt.Errorf("mutate: unknown track %q (have %v)", tr, track.BuiltinNames())
		}
	}
	if !(c.Duration > 0 && c.Duration <= sim.MaxDuration) {
		return c, fmt.Errorf("mutate: duration must be in (0, %g] s, got %g", float64(sim.MaxDuration), c.Duration)
	}
	canon := make([]Spec, len(c.Mutants))
	seen := map[string]bool{}
	for i, m := range c.Mutants {
		cm, err := m.Canonicalize()
		if err != nil {
			return c, err
		}
		if seen[cm.ID()] {
			return c, fmt.Errorf("mutate: duplicate mutant %q in grid", cm.ID())
		}
		seen[cm.ID()] = true
		canon[i] = cm
	}
	c.Mutants = canon
	return c, nil
}

// CellResult is one (mutant × track) run scored against that track's
// pristine baseline. Baseline rows have Mutant == "baseline" and empty
// kill fields.
type CellResult struct {
	Mutant string `json:"mutant"`
	Track  string `json:"track"`
	// Fired is the sorted set of assertion IDs that fired during the run.
	Fired []string `json:"fired,omitempty"`
	// Kills is Fired minus the baseline's fired set: the assertions whose
	// firing is attributable to the mutant.
	Kills []string `json:"kills,omitempty"`
	// FirstKill is the assertion of the earliest kill-qualifying
	// violation; Latency is its raise time (the mutant is active from
	// t=0). Latency is -1 when the mutant survives this cell.
	FirstKill  string  `json:"first_kill,omitempty"`
	Latency    float64 `json:"latency_s"`
	Violations int     `json:"violations"`
	MaxTrueCTE float64 `json:"max_true_cte"`
	Diverged   bool    `json:"diverged,omitempty"`
	Finished   bool    `json:"finished,omitempty"`
}

// MutantScore aggregates one mutant across every track of the grid.
type MutantScore struct {
	Mutant string `json:"mutant"`
	Kind   Kind   `json:"kind"`
	Killed bool   `json:"killed"`
	// KilledBy is the union of per-track kills, in catalog order.
	KilledBy []string `json:"killed_by,omitempty"`
	// FirstKill/Latency are the assertion and raise time of the fastest
	// detection across tracks (-1 when the mutant survives everywhere).
	FirstKill string  `json:"first_kill,omitempty"`
	Latency   float64 `json:"latency_s"`
	// MaxTrueCTE is the worst physical deviation the mutant caused on any
	// track — the danger metric the surviving-mutant ranking sorts by.
	MaxTrueCTE float64 `json:"max_true_cte"`
	Diverged   bool    `json:"diverged,omitempty"`
}

// Report is the outcome of one campaign: the kill matrix and its
// aggregates. Its JSON encoding is canonical (struct fields and slices
// only), so byte-identical reports mean identical campaigns.
type Report struct {
	Controller string   `json:"controller"`
	Seed       int64    `json:"seed"`
	Duration   float64  `json:"duration_s"`
	Tracks     []string `json:"tracks"`
	// Assertions is the catalog column order of the kill matrix.
	Assertions []string     `json:"assertions"`
	Baselines  []CellResult `json:"baselines"`
	Cells      []CellResult `json:"cells"`
	// Scores has one entry per mutant, in grid order.
	Scores []MutantScore `json:"scores"`
	// MutationScore is killed ÷ total over the non-identity mutants.
	MutationScore float64 `json:"mutation_score"`
}

// Run executes the campaign: one pristine baseline per track, then the
// full mutant × track grid, fanned across the runner pool with
// index-ordered collection, so the report is deterministic in Config for
// any worker count.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.Canonicalize()
	if err != nil {
		return nil, err
	}
	tracks := make([]*track.Track, len(cfg.Tracks))
	for i, name := range cfg.Tracks {
		tr, err := track.Builtin(name, track.DefaultSpeedLimit)
		if err != nil {
			return nil, fmt.Errorf("mutate: %w", err)
		}
		tracks[i] = tr
	}

	// Job grid: baselines first (track order), then mutant-major.
	type job struct {
		mutant int // -1 = baseline
		track  int
	}
	jobs := make([]job, 0, len(tracks)*(len(cfg.Mutants)+1))
	for ti := range tracks {
		jobs = append(jobs, job{mutant: -1, track: ti})
	}
	for mi := range cfg.Mutants {
		for ti := range tracks {
			jobs = append(jobs, job{mutant: mi, track: ti})
		}
	}

	type cellOut struct {
		fired []string
		res   *sim.Result
	}
	outs, err := runner.Map(runner.Options{
		Workers:    cfg.Workers,
		Context:    cfg.Context,
		OnProgress: cfg.Progress,
		Obs:        cfg.Obs,
		Events:     cfg.Events,
	}, jobs, func(ctx context.Context, _ int, j job) (cellOut, error) {
		probe := Probe{
			Track:      tracks[j.track],
			Controller: cfg.Controller,
			Seed:       cfg.Seed,
			Duration:   cfg.Duration,
			Obs:        cfg.Obs,
			Events:     cfg.Events,
			EventScope: "baseline/" + cfg.Tracks[j.track] + "/",
		}
		if j.mutant >= 0 {
			probe.Mutant = &cfg.Mutants[j.mutant]
			probe.EventScope = probe.Mutant.ID() + "/" + cfg.Tracks[j.track] + "/"
		}
		fired, res, err := probe.Run(ctx)
		return cellOut{fired, res}, err
	})
	if err != nil {
		return nil, err
	}

	// Assertion catalog order for matrix columns and kill sorting.
	assertionOrder := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true}).AssertionIDs()
	orderIdx := make(map[string]int, len(assertionOrder))
	for i, id := range assertionOrder {
		orderIdx[id] = i
	}

	rep := &Report{
		Controller: cfg.Controller,
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
		Tracks:     append([]string(nil), cfg.Tracks...),
		Assertions: assertionOrder,
	}

	baselineFired := make([]map[string]bool, len(tracks))
	for ti := range tracks {
		o := outs[ti]
		baselineFired[ti] = map[string]bool{}
		for _, id := range o.fired {
			baselineFired[ti][id] = true
		}
		rep.Baselines = append(rep.Baselines, CellResult{
			Mutant:     "baseline",
			Track:      cfg.Tracks[ti],
			Fired:      o.fired,
			Latency:    -1,
			Violations: len(o.res.Violations),
			MaxTrueCTE: o.res.MaxTrueCTE,
			Diverged:   o.res.Diverged,
			Finished:   o.res.Finished,
		})
	}

	killedNonIdentity, nonIdentity := 0, 0
	for mi, spec := range cfg.Mutants {
		score := MutantScore{
			Mutant:  spec.ID(),
			Kind:    spec.Kind(),
			Latency: -1,
		}
		killedBy := map[string]bool{}
		for ti := range tracks {
			o := outs[len(tracks)+mi*len(tracks)+ti]
			cell := CellResult{
				Mutant:     spec.ID(),
				Track:      cfg.Tracks[ti],
				Fired:      o.fired,
				Latency:    -1,
				Violations: len(o.res.Violations),
				MaxTrueCTE: o.res.MaxTrueCTE,
				Diverged:   o.res.Diverged,
				Finished:   o.res.Finished,
			}
			for _, id := range o.fired {
				if !baselineFired[ti][id] {
					cell.Kills = append(cell.Kills, id)
					killedBy[id] = true
				}
			}
			sortByCatalog(cell.Kills, orderIdx)
			// Detection latency: the first violation of a kill-qualifying
			// assertion (violations are in raise order; mutants are active
			// from t=0, so the raise time is the latency).
			for _, v := range o.res.Violations {
				if !baselineFired[ti][v.AssertionID] {
					cell.FirstKill, cell.Latency = v.AssertionID, v.T
					break
				}
			}
			if cell.Latency >= 0 && (score.Latency < 0 || cell.Latency < score.Latency) {
				score.FirstKill, score.Latency = cell.FirstKill, cell.Latency
			}
			if cell.MaxTrueCTE > score.MaxTrueCTE {
				score.MaxTrueCTE = cell.MaxTrueCTE
			}
			score.Diverged = score.Diverged || cell.Diverged
			rep.Cells = append(rep.Cells, cell)
		}
		for id := range killedBy {
			score.KilledBy = append(score.KilledBy, id)
		}
		sortByCatalog(score.KilledBy, orderIdx)
		score.Killed = len(score.KilledBy) > 0
		if spec.Op != OpIdentity {
			nonIdentity++
			if score.Killed {
				killedNonIdentity++
			}
		}
		rep.Scores = append(rep.Scores, score)
	}
	if nonIdentity > 0 {
		rep.MutationScore = float64(killedNonIdentity) / float64(nonIdentity)
	}
	return rep, nil
}

// sortByCatalog orders assertion IDs by catalog registration order
// (unknown IDs last, alphabetically).
func sortByCatalog(ids []string, orderIdx map[string]int) {
	sort.Slice(ids, func(i, j int) bool {
		oi, iok := orderIdx[ids[i]]
		oj, jok := orderIdx[ids[j]]
		if iok != jok {
			return iok
		}
		if !iok {
			return ids[i] < ids[j]
		}
		return oi < oj
	})
}

// Score returns the aggregate score of one mutant ID.
func (r *Report) Score(mutantID string) (MutantScore, bool) {
	for _, s := range r.Scores {
		if s.Mutant == mutantID {
			return s, true
		}
	}
	return MutantScore{}, false
}

// Killed reports whether the assertion killed the mutant on any track.
func (r *Report) Killed(mutantID, assertionID string) bool {
	s, ok := r.Score(mutantID)
	if !ok {
		return false
	}
	for _, id := range s.KilledBy {
		if id == assertionID {
			return true
		}
	}
	return false
}

// Survivors returns the non-identity mutants no assertion killed, ranked
// most dangerous first: by worst physical deviation descending, then by
// mutant ID for stability.
func (r *Report) Survivors() []MutantScore {
	var out []MutantScore
	for _, s := range r.Scores {
		if !s.Killed && s.Mutant != OpIdentity {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Diverged != out[j].Diverged {
			return out[i].Diverged
		}
		if out[i].MaxTrueCTE != out[j].MaxTrueCTE {
			return out[i].MaxTrueCTE > out[j].MaxTrueCTE
		}
		return out[i].Mutant < out[j].Mutant
	})
	return out
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
		return nil, fmt.Errorf("mutate: decode report: %w", err)
	}
	return &rep, nil
}

// WriteSurvivorReport renders the ranked surviving-mutant report: the
// mutants the whole assertion catalog missed, most dangerous first. This
// is the actionable output of a campaign — each line is a fault class the
// catalog needs a new or tighter assertion for.
func (r *Report) WriteSurvivorReport(w io.Writer) error {
	killed := 0
	total := 0
	for _, s := range r.Scores {
		if s.Mutant == OpIdentity {
			continue
		}
		total++
		if s.Killed {
			killed++
		}
	}
	if _, err := fmt.Fprintf(w, "surviving-mutant report — %s, tracks %v, seed %d, %.0f s/run\n",
		r.Controller, r.Tracks, r.Seed, r.Duration); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "mutation score: %d/%d non-identity mutants killed (%.0f%%)\n",
		killed, total, 100*r.MutationScore); err != nil {
		return err
	}
	if id, ok := r.Score(OpIdentity); ok {
		status := "survived all assertions (no false positives from the instrumentation)"
		if id.Killed {
			status = fmt.Sprintf("KILLED by %v — the wrapper perturbs the loop; the matrix is unsound", id.KilledBy)
		}
		if _, err := fmt.Fprintf(w, "identity mutant: %s\n", status); err != nil {
			return err
		}
	}
	survivors := r.Survivors()
	if len(survivors) == 0 {
		_, err := fmt.Fprintln(w, "survivors: none — every non-identity mutant was killed")
		return err
	}
	if _, err := fmt.Fprintf(w, "survivors (%d, ranked by worst physical deviation):\n", len(survivors)); err != nil {
		return err
	}
	for i, s := range survivors {
		divergedNote := ""
		if s.Diverged {
			divergedNote = "  DIVERGED"
		}
		if _, err := fmt.Fprintf(w, "  %d. %-28s %-10s max|trueCTE|=%.2f m%s\n",
			i+1, s.Mutant, s.Kind, s.MaxTrueCTE, divergedNote); err != nil {
			return err
		}
	}
	return nil
}
