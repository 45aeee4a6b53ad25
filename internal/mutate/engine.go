package mutate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"adassure/internal/runner"
	"adassure/internal/sim"
)

// Config describes one mutation campaign: the shared campaign base plus
// the mutant grid. The zero value of every field is the campaign default.
// Events scopes each run "<mutantID>/<track>/" ("baseline/<track>/" for
// baselines) so each cell's violation episodes stay distinct.
type Config struct {
	Campaign
	// Mutants is the grid (default DefaultCatalog()). Duplicate canonical
	// IDs are rejected.
	Mutants []Spec
}

// Canonicalize validates the config and returns it with every defaultable
// field filled in: the Campaign defaults and the DefaultCatalog grid. The
// mutants must be valid and unique by canonical ID. The receiver is not
// modified; on error the returned config still carries the defaults.
func (c Config) Canonicalize() (Config, error) {
	if len(c.Mutants) == 0 {
		c.Mutants = DefaultCatalog()
	}
	var err error
	if c.Campaign, err = c.Campaign.Canonicalize(); err != nil {
		return c, fmt.Errorf("mutate: %w", err)
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
	// Fired is the set of assertion IDs that fired during the run, in
	// catalog order.
	Fired []string `json:"fired,omitempty"`
	// Kills is Fired minus the baseline's fired set, in catalog order: the
	// assertions whose firing is attributable to the mutant.
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
// full mutant × track grid, fanned across the runner pool in one batch with
// index-ordered collection, so the report is deterministic in Config for
// any worker count.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.Canonicalize()
	if err != nil {
		return nil, err
	}
	setup, err := cfg.Prepare(nil)
	if err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}
	nt := len(cfg.Tracks)

	// Job grid: baselines first (track order), then mutant-major.
	type job struct {
		mutant int // -1 = baseline
		track  int
	}
	jobs := make([]job, 0, nt*(len(cfg.Mutants)+1))
	for ti := range nt {
		jobs = append(jobs, job{mutant: -1, track: ti})
	}
	for mi := range cfg.Mutants {
		for ti := range nt {
			jobs = append(jobs, job{mutant: mi, track: ti})
		}
	}

	type cellOut struct {
		fired []string
		res   *sim.Result
	}
	outs, err := runner.Map(setup.Pool(), jobs, func(ctx context.Context, _ int, j job) (cellOut, error) {
		probe := setup.Probe(j.track, "baseline/"+cfg.Tracks[j.track]+"/")
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

	rep := &Report{
		Controller: cfg.Controller,
		Seed:       cfg.Seed,
		Duration:   cfg.Duration,
		Tracks:     append([]string(nil), cfg.Tracks...),
		Assertions: setup.Assertions,
	}
	baselineFired := make([][]string, nt)
	for ti := range nt {
		o := outs[ti]
		baselineFired[ti] = o.fired
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
	setup.SetBaselines(baselineFired)

	killedNonIdentity, nonIdentity := 0, 0
	for mi, spec := range cfg.Mutants {
		score := MutantScore{
			Mutant:  spec.ID(),
			Kind:    spec.Kind(),
			Latency: -1,
		}
		killedBy := map[string]bool{}
		for ti := range nt {
			o := outs[nt+mi*nt+ti]
			cell := CellResult{
				Mutant:     spec.ID(),
				Track:      cfg.Tracks[ti],
				Fired:      o.fired,
				Kills:      setup.Kills(ti, o.fired),
				Latency:    -1,
				Violations: len(o.res.Violations),
				MaxTrueCTE: o.res.MaxTrueCTE,
				Diverged:   o.res.Diverged,
				Finished:   o.res.Finished,
			}
			for _, id := range cell.Kills {
				killedBy[id] = true
			}
			// Detection latency: the first violation of a kill-qualifying
			// assertion (violations are in raise order; mutants are active
			// from t=0, so the raise time is the latency).
			for _, v := range o.res.Violations {
				if setup.Kill(ti, v.AssertionID) {
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
		for _, id := range rep.Assertions {
			if killedBy[id] {
				score.KilledBy = append(score.KilledBy, id)
			}
		}
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
	return ok && slices.Contains(s.KilledBy, assertionID)
}

// KillMatrix returns the kill matrix as text cells: the column headers
// and one row per mutant in grid order. A row holds the mutant and its
// kind, an X under each assertion that killed it on any track (a dot
// otherwise, columns in catalog order), then whether it was killed, the
// first kill, its latency and the worst |CTE|.
func (r *Report) KillMatrix() (columns []string, rows [][]string) {
	columns = append(append([]string{"mutant", "kind"}, r.Assertions...), "killed", "first", "latency (s)", "max |cte| (m)")
	for _, s := range r.Scores {
		row := []string{s.Mutant, string(s.Kind)}
		for _, id := range r.Assertions {
			cell := "."
			if slices.Contains(s.KilledBy, id) {
				cell = "X"
			}
			row = append(row, cell)
		}
		killed, first, latency := "no", "-", "-"
		if s.Killed {
			killed, first = "yes", s.FirstKill
			latency = strconv.FormatFloat(s.Latency, 'f', 2, 64)
		}
		rows = append(rows, append(row, killed, first, latency, strconv.FormatFloat(s.MaxTrueCTE, 'f', 2, 64)))
	}
	return columns, rows
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
