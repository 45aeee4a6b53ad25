// Package harness defines and runs the reproduction experiments: every
// table (T1–T6) and figure (F1–F6) in the evaluation, each regenerated as a
// renderable Table from fresh simulation runs. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for expected-vs-measured records.
//
// The scenario grids behind the experiments — every (track × controller ×
// attack × seed) cell — are embarrassingly parallel, so each experiment
// fans its runs across an internal/runner worker pool (Options.Workers,
// default GOMAXPROCS). Results are collected index-ordered, which keeps
// every rendered table byte-identical to the sequential workers=1 path.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/forensics"
	"adassure/internal/geom"
	"adassure/internal/metrics"
	"adassure/internal/obs"
	"adassure/internal/runner"
	"adassure/internal/sim"
	"adassure/internal/track"
)

// Table is a rendered experiment result: an identifier, column headers and
// string rows, plus free-form notes (assumptions, units).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Options configures an experiment run.
type Options struct {
	// Seeds is the number of random seeds per configuration (default 3).
	Seeds int
	// Quick shortens run durations for smoke testing and benchmarks.
	Quick bool
	// Controller is the default lateral controller (default "pure-pursuit").
	Controller string
	// Workers is the scenario-execution pool size (default
	// runtime.GOMAXPROCS(0)). Every experiment produces identical output
	// for any value, including 1 — see internal/runner.
	Workers int
	// Obs, when non-nil, aggregates runtime metrics across every scenario
	// an experiment runs: runner job stats, sim step histograms and the
	// per-assertion monitoring cost (see internal/obs). Metrics never feed
	// back into rendered tables, so attaching a registry cannot perturb
	// the byte-identical-output guarantee. F4 is the exception: it always
	// measures on its own private registry so its reported numbers are not
	// polluted by (and do not pollute) the shared one.
	Obs *obs.Registry
	// Events, when non-nil, records the structured event timeline of every
	// scenario an experiment fans out (scenario lifecycle, attack windows,
	// violation episodes, guard intervals) plus the runner's per-worker job
	// spans. Each scenario's tracks are scoped by its cell name,
	// "<class>_<controller>_seed<N>[_guard]/", so the cells of one
	// experiment stay distinct on a shared recorder; two experiments that
	// run the same cell (T1 and T2 both run every class) reuse its lanes.
	// "_guard" marks the full guard (gate, staleness and assertion
	// trigger). A cell that varies more than class, controller and seed
	// gets one suffix per varied field, in this order: "-gate<χ²>",
	// "-stale<s>" and "-noassert" on "_guard" for a partial guard (X1),
	// "_size<x>" for a sized drift or step spoof (X2, X3), "_<localizer>"
	// (X5), "_scale<x>" (F5) and "_debounce<k>-of-<n>" (F6); numbers print
	// in %g form. Like Obs, attaching a recorder never changes the
	// rendered tables.
	Events *events.Recorder
	// BundleDir, when non-empty, writes one forensic bundle JSON per
	// violation episode of every scenario an experiment fans out into the
	// directory (created on demand), named <cell name>_<bundle>, with the
	// cell name of Events, e.g.
	// gnss-drift-spoof_pure-pursuit_seed1_guard_bundle_000_A13_t0026.50s.json.
	BundleDir string

	// frames records every run's frames, which F1 and F2 project their
	// series from. Runs record them under BundleDir too; no other
	// experiment reads them.
	frames bool
}

func (o *Options) defaults() {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if o.Controller == "" {
		o.Controller = "pure-pursuit"
	}
}

func (o Options) duration() float64 {
	if o.Quick {
		return 55
	}
	return attacks.ScenarioDuration
}

// gridCell is one scenario of an experiment grid: exactly the fields the
// experiments vary. The rest is fixed for every cell: the urban-loop
// track, the shuttle, the default attack window, the run length and a
// catalog monitor that includes the ground-truth assertion.
type gridCell struct {
	// class selects the standard campaign (ClassNone is a clean run).
	class attacks.Class
	// size, when non-zero, replaces the standard magnitude of class with
	// a GNSS attack built for this cell alone: the drift rate (m/s) of a
	// drift spoof (X2) or the offset (m) of a step spoof (X3).
	size       float64
	controller string
	// seed is set by run, which repeats every cell over seeds 1..n.
	seed      int64
	guard     sim.GuardConfig
	localizer string // "" is the default EKF
	// catalog varies the threshold scale (F5) or the debounce (F6).
	catalog core.CatalogConfig
}

// classCells returns one unguarded default cell per class.
func classCells(controller string, classes ...attacks.Class) []gridCell {
	cells := make([]gridCell, len(classes))
	for i, class := range classes {
		cells[i] = gridCell{class: class, controller: controller}
	}
	return cells
}

// name identifies the cell in event tracks and bundle file names; the
// scheme is documented on Options.Events. A suffix appears for each field
// that differs from its zero value, so a cell that varies only class,
// controller, seed and the full guard keeps its plain name.
func (c gridCell) name() string {
	name := fmt.Sprintf("%s_%s_seed%d", c.class, c.controller, c.seed)
	if g := c.guard; g.Enabled {
		name += "_guard"
		if g.GateThreshold != 0 {
			name += fmt.Sprintf("-gate%g", g.GateThreshold)
		}
		if g.StaleAfter != 0 {
			name += fmt.Sprintf("-stale%g", g.StaleAfter)
		}
		if !g.AssertionTrigger {
			name += "-noassert"
		}
	}
	if c.size != 0 {
		name += fmt.Sprintf("_size%g", c.size)
	}
	if c.localizer != "" {
		name += "_" + c.localizer
	}
	if c.catalog.ThresholdScale != 0 {
		name += fmt.Sprintf("_scale%g", c.catalog.ThresholdScale)
	}
	if d := c.catalog.Debounce; d.N != 0 {
		name += fmt.Sprintf("_debounce%d-of-%d", d.K, d.N)
	}
	return name
}

// campaign builds the cell's attack campaign.
func (c gridCell) campaign() (attacks.Campaign, error) {
	win := attacks.Window{Start: attacks.DefaultOnset, End: attacks.DefaultEnd}
	if c.size == 0 {
		return attacks.Standard(c.class, win, c.seed)
	}
	switch c.class {
	case attacks.ClassDriftSpoof:
		a, err := attacks.NewDriftSpoof(win, geom.V(0, 1), c.size, 15)
		return attacks.Campaign{GNSS: a}, err
	case attacks.ClassStepSpoof:
		a, err := attacks.NewStepSpoof(win, geom.V(0, c.size))
		return attacks.Campaign{GNSS: a}, err
	}
	return attacks.Campaign{}, fmt.Errorf("harness: %s has no size", c.class)
}

// run simulates every cell once per seed 1..seeds across the worker pool
// and returns the results as out[cell][seed-1]. It is the package's only
// sim.Run call. Results are collected index-ordered, so every experiment
// aggregates in a fixed order and renders byte-identically for any
// worker count. Each run builds its own campaign, monitor and sensors;
// the only values the workers share (the track and the options) are
// immutable.
func run(o Options, seeds int, cells []gridCell) ([][]*sim.Result, error) {
	tr, err := track.UrbanLoop(track.DefaultSpeedLimit)
	if err != nil {
		return nil, err
	}
	jobs := make([]gridCell, 0, len(cells)*seeds)
	for _, c := range cells {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			c.seed = seed
			jobs = append(jobs, c)
		}
	}
	flat, err := runner.Map(runner.Options{Workers: o.Workers, Obs: o.Obs, Events: o.Events}, jobs,
		func(_ context.Context, _ int, c gridCell) (*sim.Result, error) {
			camp, err := c.campaign()
			if err != nil {
				return nil, err
			}
			c.catalog.IncludeGroundTruth = true
			res, err := sim.Run(sim.Config{
				Track:        tr,
				Controller:   c.controller,
				Localizer:    c.localizer,
				Seed:         c.seed,
				Duration:     o.duration(),
				Campaign:     camp,
				Monitor:      core.NewCatalogMonitor(c.catalog),
				Guard:        c.guard,
				RecordFrames: o.frames || o.BundleDir != "",
				Obs:          o.Obs,
				Events:       o.Events,
				EventScope:   c.name() + "/",
			})
			if err != nil || o.BundleDir == "" {
				return res, err
			}
			return res, writeCellBundles(o, tr, camp, c, res)
		})
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(cells))
	for i := range out {
		out[i] = flat[i*seeds : (i+1)*seeds]
	}
	return out, nil
}

// writeCellBundles emits the forensic bundles of one cell into
// Options.BundleDir. Filenames embed the cell name plus the bundle's own
// canonical name, so concurrent grid workers never collide and the same
// cell re-run by a later experiment overwrites deterministically.
func writeCellBundles(o Options, tr *track.Track, camp attacks.Campaign, c gridCell, res *sim.Result) error {
	if len(res.Violations) == 0 {
		return nil
	}
	var attack *forensics.AttackInfo
	if win, ok := camp.ActiveWindow(); ok {
		attack = &forensics.AttackInfo{
			Name: camp.Name(), Class: string(camp.Class()),
			Start: win.Start, End: win.End,
		}
	}
	bundles := forensics.Build(forensics.Input{
		Scenario: map[string]string{
			"track":      tr.Name(),
			"controller": c.controller,
			"attack":     string(camp.Class()),
			"seed":       fmt.Sprintf("%d", c.seed),
		},
		Violations: res.Violations,
		Frames:     res.Frames,
		Attack:     attack,
		Obs:        o.Obs,
	})
	if err := os.MkdirAll(o.BundleDir, 0o755); err != nil {
		return fmt.Errorf("harness: create bundle dir: %w", err)
	}
	prefix := c.name() + "_"
	for i := range bundles {
		b := &bundles[i]
		path := filepath.Join(o.BundleDir, prefix+b.Filename())
		f, err := os.Create(path)
		if err == nil {
			err = b.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("harness: write bundle: %w", err)
		}
	}
	return nil
}

// detections scores each run's violations against the attack onset (a
// negative onset scores a clean run: every violation is a false positive).
func detections(rs []*sim.Result, onset float64) []metrics.Detection {
	ds := make([]metrics.Detection, len(rs))
	for i, r := range rs {
		ds[i] = metrics.Detect(r.Violations, onset)
	}
	return ds
}

// firstDetector returns the assertion that most often raised the first
// post-onset violation across ds, ties broken by the lower ID, or "-" when
// no run was detected.
func firstDetector(ds []metrics.Detection) string {
	firstBy := map[string]int{}
	for _, d := range ds {
		if d.Detected {
			firstBy[d.ByID]++
		}
	}
	best, bestN := "-", 0
	for id, n := range firstBy {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best
}

// Experiment couples an ID with its generator, for the registry consumed by
// the CLI and the benches.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// All returns the experiment registry in report order.
func All() []Experiment {
	return []Experiment{
		{"T1", Table1DetectionMatrix},
		{"T2", Table2DetectionLatency},
		{"T3", Table3DetectionRates},
		{"T4", Table4DiagnosisAccuracy},
		{"T5", Table5ControllerComparison},
		{"T6", Table6DebugLoop},
		{"F1", Figure1CrossTrackSeries},
		{"F2", Figure2Trajectory},
		{"F3", Figure3LatencyCDF},
		{"F4", Figure4MonitorOverhead},
		{"F5", Figure5ThresholdAblation},
		{"F6", Figure6DebounceAblation},
		{"X1", ExtensionX1GuardAblation},
		{"X2", ExtensionX2DriftRateSweep},
		{"X3", ExtensionX3StepMagnitudeSweep},
		{"X4", ExtensionX4AssertionUtility},
		{"X5", ExtensionX5FusionAblation},
		{"M1", ExperimentM1MutationKillMatrix},
		{"S1", ExperimentS1EvasionFrontier},
	}
}

// ByID returns one experiment from the registry.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
