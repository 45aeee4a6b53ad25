package mutate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// smallConfig is a cheap campaign for structural tests: one track, a
// three-mutant grid, short runs.
func smallConfig() Config {
	return Config{
		Campaign: Campaign{Tracks: []string{"urban-loop"}, Duration: 25},
		Mutants:  []Spec{{Op: OpIdentity}, {Op: OpGainFlip}, {Op: OpGNSSDropout, Param: 5}},
	}
}

// renderAll captures every deterministic artifact of a report: the
// canonical JSON export and the surviving-mutant report.
func renderAll(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteSurvivorReport(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMutationDeterministicAcrossWorkers asserts the kill matrix and its
// JSON export are byte-identical at workers=1, 4 and GOMAXPROCS, and with
// or without obs/event recorders attached — the same guarantee the
// harness experiments make (TestParallelDeterminism).
func TestMutationDeterministicAcrossWorkers(t *testing.T) {
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

	// Recorders attached must not perturb the report.
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
		t.Errorf("repeat run with recorders differs (err=%v)", err)
	}
}

// TestDefaultGridKills pins the acceptance criteria of the default grid:
// every non-identity mutant is killed by at least one catalog assertion
// and the identity mutant survives all of them. The grid's long-time
// demonstration survivor — sub-noise GNSS quantize, invisible to every
// amplitude-based check — is now killed by the A15 lattice detector the
// adversarial-search loop (internal/search, experiment S1) motivated.
func TestDefaultGridKills(t *testing.T) {
	rep, err := Run(Config{Campaign: Campaign{Duration: 40}})
	if err != nil {
		t.Fatal(err)
	}
	former := Spec{Op: OpGNSSQuantize, Param: 0.25}.ID()
	for _, s := range rep.Scores {
		switch {
		case s.Mutant == OpIdentity:
			if s.Killed {
				t.Errorf("identity mutant killed by %v: the wrapper perturbs the loop", s.KilledBy)
			}
		case !s.Killed:
			t.Errorf("mutant %s survived the full catalog", s.Mutant)
		case s.Latency < 0:
			t.Errorf("%s killed but latency %g", s.Mutant, s.Latency)
		}
		if s.Mutant == former && !killedBy(s, "A15") {
			t.Errorf("%s should be killed by the A15 lattice detector, got %v", former, s.KilledBy)
		}
	}
	if n := len(rep.Survivors()); n != 0 {
		t.Errorf("default grid ranked %d survivors, want none after the catalog strengthening", n)
	}
	if rep.MutationScore != 1 {
		t.Errorf("default-grid mutation score %.2f, want 1.0: every non-identity mutant killed", rep.MutationScore)
	}
}

// TestSatRemoveKilledAcrossSeeds: the unsaturated speed PID is killed on
// every seed, by A8's command-envelope clause, not by a noise-dependent
// jerk spike. Its command passes the 1.5 m/s² envelope on the first
// acceleration from rest, which the pristine PID never does.
func TestSatRemoveKilledAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rep, err := Run(Config{Campaign: Campaign{Duration: 40, Seed: seed}, Mutants: []Spec{{Op: OpSatRemove}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range rep.Scores {
			if s.Mutant == OpSatRemove && !killedBy(s, "A8") {
				t.Errorf("seed %d: %s not killed by A8 (killed=%v by %v)", seed, s.Mutant, s.Killed, s.KilledBy)
			}
		}
	}
}

// killedBy reports whether the assertion appears in the score's kill set.
func killedBy(s MutantScore, id string) bool {
	for _, k := range s.KilledBy {
		if k == id {
			return true
		}
	}
	return false
}

func TestCanonicalizeIdempotent(t *testing.T) {
	for _, s := range DefaultCatalog() {
		c, err := s.Canonicalize()
		if err != nil {
			t.Fatalf("catalog spec %+v rejected: %v", s, err)
		}
		if c != s {
			t.Errorf("DefaultCatalog entry %+v is not canonical (got %+v)", s, c)
		}
		c2, err := c.Canonicalize()
		if err != nil || c2 != c {
			t.Errorf("Canonicalize not idempotent for %+v: %+v, %v", c, c2, err)
		}
	}
}

func TestCanonicalizeDefaults(t *testing.T) {
	c, err := Spec{Op: OpGainScale}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Param != 3 {
		t.Errorf("gain-scale default param = %g, want 3", c.Param)
	}
	if got := c.ID(); got != "ctrl-gain-scale(3)" {
		t.Errorf("ID = %q", got)
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	cases := []Spec{
		{Op: "no-such-op"},
		{Op: OpIdentity, Param: 1},      // no-param op with a parameter
		{Op: OpGainScale, Param: -3},    // below range
		{Op: OpGainScale, Param: 1e9},   // above range
		{Op: OpFrozenInput, Param: 100}, // above range
	}
	for _, s := range cases {
		if _, err := s.Canonicalize(); err == nil {
			t.Errorf("Canonicalize(%+v) accepted, want error", s)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Campaign: Campaign{Tracks: []string{"no-such-track"}, Duration: 1}}); err == nil ||
		!strings.Contains(err.Error(), "unknown track") {
		t.Errorf("unknown track not rejected: %v", err)
	}
	if _, err := Run(Config{Campaign: Campaign{Duration: 1}, Mutants: []Spec{{Op: OpGainFlip}, {Op: OpGainFlip}}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate mutant not rejected: %v", err)
	}
	if _, err := Run(Config{Campaign: Campaign{Duration: 1}, Mutants: []Spec{{Op: "bogus"}}}); err == nil {
		t.Error("unknown operator not rejected")
	}
	if _, err := Run(Config{Campaign: Campaign{Duration: -5}}); err == nil {
		t.Error("negative duration not rejected")
	}
	if _, err := Run(Config{Campaign: Campaign{Duration: 3600.01}}); err == nil ||
		!strings.HasPrefix(err.Error(), "mutate: duration") {
		t.Errorf("duration over sim.MaxDuration not rejected by Canonicalize: %v", err)
	}
}

// TestConfigCanonicalize: defaults are filled in, canonicalizing twice
// changes nothing, and an unknown controller is rejected up front rather
// than inside the first simulation.
func TestConfigCanonicalize(t *testing.T) {
	c, err := Config{Mutants: []Spec{{Op: OpGainScale}}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Controller != "pure-pursuit" || c.Seed != 1 || c.Duration != 60 ||
		!reflect.DeepEqual(c.Tracks, []string{"urban-loop", "hairpin"}) ||
		!reflect.DeepEqual(c.Mutants, []Spec{{Op: OpGainScale, Param: 3}}) {
		t.Errorf("canonical = %+v", c)
	}
	if again, err := c.Canonicalize(); err != nil || !reflect.DeepEqual(again, c) {
		t.Errorf("not idempotent: %+v -> %+v (%v)", c, again, err)
	}
	if _, err := (Config{Campaign: Campaign{Controller: "yolo"}}).Canonicalize(); err == nil ||
		!strings.Contains(err.Error(), "unknown controller") {
		t.Errorf("unknown controller not rejected: %v", err)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	cfg := smallConfig()
	rep, err := Run(cfg)
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

func TestKilledLookup(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Killed(OpGainFlip, "A2") {
		t.Error("gain-flip should be killed by A2 on urban-loop")
	}
	if rep.Killed(OpIdentity, "A2") {
		t.Error("identity must not be killed")
	}
	if rep.Killed("no-such-mutant", "A2") {
		t.Error("unknown mutant should report false")
	}
	if _, ok := rep.Score(OpGainFlip); !ok {
		t.Error("Score lookup failed for grid mutant")
	}
}
