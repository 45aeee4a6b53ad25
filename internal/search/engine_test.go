package search

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adassure/internal/events"
	"adassure/internal/mutate"
	"adassure/internal/obs"
)

// smallConfig is a cheap campaign for structural tests: one track, two
// channels, tiny budget, short runs.
func smallConfig() Config {
	return Config{
		Campaign: mutate.Campaign{Tracks: []string{"urban-loop"}, Duration: 20},
		Channels: []Spec{
			{Op: mutate.OpGNSSQuantize, Min: 0.05, Max: 2.5},
			{Op: mutate.OpLookaheadSkip},
		},
		Budget: 6,
	}
}

// renderAll captures every deterministic artifact of a report: the
// canonical JSON export and the frontier report.
func renderAll(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteFrontierReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchDeterministicAcrossWorkers asserts the frontier report and its
// JSON export are byte-identical at workers=1, 4 and GOMAXPROCS, across
// two same-seed runs, and with or without obs/event recorders attached —
// the same guarantee the mutation engine and the harness experiments make.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	base := smallConfig()
	base.Workers = 1
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, ref)

	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		cfg := smallConfig()
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(t, rep); !bytes.Equal(got, want) {
			t.Errorf("report at workers=%d differs from workers=1\n--- want\n%s\n--- got\n%s", workers, want, got)
		}
	}

	// Recorders attached must not perturb the report, and a repeat run with
	// the same seed must reproduce it.
	cfg := smallConfig()
	cfg.Workers = 4
	cfg.Obs = obs.NewRegistry()
	cfg.Events = events.NewRecorder(0)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, rep); !bytes.Equal(got, want) {
		t.Errorf("report with recorders attached differs\n--- want\n%s\n--- got\n%s", want, got)
	}
	if rep2, err := Run(cfg); err != nil || !bytes.Equal(renderAll(t, rep2), want) {
		t.Errorf("repeat same-seed run differs (err=%v)", err)
	}
}

// TestSearchClosesQuantizeGap is the package-level statement of the S1
// result: against the full catalog the sub-noise GNSS quantize channel has
// no evasion region left (the A15 lattice detector holds the frontier at
// zero), while the same search against the catalog without A15 finds a
// nonzero evading magnitude with a certified detected neighbor — the gap
// the adversarial search surfaced and the catalog strengthening closed.
func TestSearchClosesQuantizeGap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-probe simulation campaign")
	}
	quantize := []Spec{{Op: mutate.OpGNSSQuantize, Min: 0.05, Max: 2.5}}

	after, err := Run(Config{
		Campaign: mutate.Campaign{Tracks: []string{"urban-loop"}, Duration: 30},
		Channels: quantize,
		Budget:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ap, ok := after.PointFor("urban-loop", mutate.OpGNSSQuantize)
	if !ok {
		t.Fatal("no frontier point for the quantize channel")
	}
	if ap.Status != StatusAllDetected || ap.Evading != 0 {
		t.Errorf("full catalog: quantize frontier %+v, want all-detected with zero evasion region", ap.Point)
	}

	weakened := make([]string, 0, len(after.Assertions)-1)
	for _, id := range after.Assertions {
		if id != "A15" {
			weakened = append(weakened, id)
		}
	}
	before, err := Run(Config{
		Campaign:   mutate.Campaign{Tracks: []string{"urban-loop"}, Duration: 30},
		Channels:   quantize,
		Assertions: weakened,
		Budget:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := before.PointFor("urban-loop", mutate.OpGNSSQuantize)
	if bp.Evading == 0 {
		t.Fatalf("without A15 the quantize channel should have an evasion region, got %+v", bp.Point)
	}
	if bp.Detected <= bp.Evading || len(bp.DetectedBy) == 0 {
		t.Errorf("weakened-catalog point lacks a minimality certificate: %+v (killed by %v)", bp.Point, bp.DetectedBy)
	}
}

// TestSearchCEMMode runs the cross-entropy mode end-to-end on a tiny
// budget: structure, determinism across a repeat run, and window validity.
func TestSearchCEMMode(t *testing.T) {
	cfg := Config{
		Campaign: mutate.Campaign{Tracks: []string{"urban-loop"}, Duration: 20},
		Channels: []Spec{{Op: mutate.OpGNSSQuantize, Min: 0.05, Max: 2.5}, {Op: mutate.OpFrozenInput}},
		Mode:     ModeCEM,
		Budget:   12,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frontier) != 2 {
		t.Fatalf("cem frontier has %d points, want one per channel", len(rep.Frontier))
	}
	if rep.TotalEvals == 0 || rep.TotalEvals > cfg.Budget {
		t.Errorf("cem spent %d evals, want within (0, %d]", rep.TotalEvals, cfg.Budget)
	}
	for _, p := range rep.Frontier {
		if p.Channel == mutate.OpFrozenInput && p.Window != nil {
			t.Errorf("controller channel carries a window: %+v", p)
		}
	}
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, rep), renderAll(t, rep2)) {
		t.Error("cem mode not deterministic across same-seed runs")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Campaign: mutate.Campaign{Tracks: []string{"no-such-track"}, Duration: 1}, Budget: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown track") {
		t.Errorf("unknown track not rejected: %v", err)
	}
	if _, err := Run(Config{Campaign: mutate.Campaign{Duration: 1}, Channels: []Spec{{Op: "bogus"}}, Budget: 1}); err == nil {
		t.Error("unknown channel not rejected")
	}
	if _, err := Run(Config{Campaign: mutate.Campaign{Duration: 1}, Channels: []Spec{{Op: mutate.OpGNSSLatency}, {Op: mutate.OpGNSSLatency}}, Budget: 1}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Error("duplicate channel not rejected")
	}
	if _, err := Run(Config{Campaign: mutate.Campaign{Duration: 1}, Mode: "anneal", Budget: 1}); err == nil {
		t.Error("unknown mode not rejected")
	}
	if _, err := Run(Config{Campaign: mutate.Campaign{Duration: -5}, Budget: 1}); err == nil {
		t.Error("negative duration not rejected")
	}
	if _, err := Run(Config{Campaign: mutate.Campaign{Duration: 3600.01}, Budget: 1}); err == nil ||
		!strings.HasPrefix(err.Error(), "search: duration") {
		t.Errorf("duration over sim.MaxDuration not rejected by Canonicalize: %v", err)
	}
	if _, err := Run(Config{Campaign: mutate.Campaign{Duration: 1}, Assertions: []string{"A99"}, Budget: 1}); err == nil {
		t.Error("unknown assertion subset not rejected")
	}
}

// TestConfigCanonicalize: defaults are filled in (the budget by mode),
// canonicalizing twice changes nothing, and an unknown controller or
// assertion is rejected up front rather than inside the first probe.
func TestConfigCanonicalize(t *testing.T) {
	c, err := Config{Mode: ModeCEM}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Controller != "pure-pursuit" || c.Seed != 1 || c.Duration != 60 || c.Budget != 48 ||
		!reflect.DeepEqual(c.Tracks, []string{"urban-loop", "hairpin"}) || len(c.Channels) != len(DefaultChannels()) {
		t.Errorf("canonical = %+v", c)
	}
	if again, err := c.Canonicalize(); err != nil || !reflect.DeepEqual(again, c) {
		t.Errorf("not idempotent: %+v -> %+v (%v)", c, again, err)
	}
	if d, err := (Config{}).Canonicalize(); err != nil || d.Mode != ModeDescent || d.Budget != 16 {
		t.Errorf("descent defaults = %+v (%v)", d, err)
	}
	if _, err := (Config{Campaign: mutate.Campaign{Controller: "yolo"}}).Canonicalize(); err == nil ||
		!strings.Contains(err.Error(), "unknown controller") {
		t.Errorf("unknown controller not rejected: %v", err)
	}
	if _, err := (Config{Assertions: []string{"A1", "A99"}}).Canonicalize(); err == nil ||
		!strings.Contains(err.Error(), "unknown catalog assertion") {
		t.Errorf("unknown assertion not rejected: %v", err)
	}
	// A valid subset is kept as given, order included.
	if c, err := (Config{Assertions: []string{"A5", "A1"}}).Canonicalize(); err != nil ||
		!reflect.DeepEqual(c.Assertions, []string{"A5", "A1"}) {
		t.Errorf("assertion subset = %v (%v), want [A5 A1]", c.Assertions, err)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Errorf("report JSON round trip drifted\n--- want\n%s\n--- got\n%s", a, b)
	}
}

// TestDetectedByCatalogOrder: a certificate's DetectedBy keeps the order
// of Report.Assertions, which is catalog order, not string order (A12 is
// registered last). S1-quick's ctrl-frozen-input point is certified by
// four assertions, so its list shows the order.
func TestDetectedByCatalogOrder(t *testing.T) {
	rep, err := Run(Config{
		Campaign: mutate.Campaign{Tracks: []string{"urban-loop"}, Duration: 30},
		Channels: []Spec{{Op: mutate.OpFrozenInput}},
		Budget:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := rep.PointFor("urban-loop", mutate.OpFrozenInput)
	if !ok || len(p.DetectedBy) < 2 {
		t.Fatalf("frozen-input point %+v: want a certificate shared by several assertions", p)
	}
	i := 0
	for _, id := range rep.Assertions {
		if i < len(p.DetectedBy) && p.DetectedBy[i] == id {
			i++
		}
	}
	if i != len(p.DetectedBy) {
		t.Errorf("DetectedBy %v does not follow the catalog order %v", p.DetectedBy, rep.Assertions)
	}
}
