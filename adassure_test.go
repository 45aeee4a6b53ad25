package adassure

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/sim"
)

func TestScenarioDefaultsCleanRun(t *testing.T) {
	out, err := Scenario{Duration: 30}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim == nil || out.Sim.Steps == 0 {
		t.Fatal("simulation did not run")
	}
	if len(out.Violations) != 0 {
		t.Errorf("clean default scenario raised %d violations", len(out.Violations))
	}
	if len(out.Hypotheses) == 0 || out.Hypotheses[0].Cause != Cause("none") {
		t.Errorf("clean scenario diagnosis = %+v", out.Hypotheses)
	}
	if !strings.Contains(out.Report(), "nominal") {
		t.Error("clean report should read nominal")
	}
}

func TestScenarioAttackDetectedAndDiagnosed(t *testing.T) {
	out, err := Scenario{Attack: AttackStepSpoof}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected(20) {
		t.Fatal("step spoof undetected")
	}
	if out.Hypotheses[0].Cause != Cause(AttackStepSpoof) {
		t.Errorf("diagnosed %s, want step spoof", out.Hypotheses[0].Cause)
	}
	if !strings.Contains(out.Report(), "gnss-step-spoof") {
		t.Error("report should name the top hypothesis")
	}
}

func TestScenarioGuardedReducesImpact(t *testing.T) {
	unguarded, err := Scenario{Attack: AttackDriftSpoof}.Run()
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Scenario{Attack: AttackDriftSpoof, Guarded: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if guarded.Sim.MaxTrueCTE >= unguarded.Sim.MaxTrueCTE {
		t.Errorf("guard did not reduce CTE: %.2f vs %.2f",
			guarded.Sim.MaxTrueCTE, unguarded.Sim.MaxTrueCTE)
	}
}

func TestScenarioUnknownTrack(t *testing.T) {
	if _, err := (Scenario{Track: "nowhere"}).Run(); err == nil {
		t.Error("unknown track accepted")
	}
}

func TestScenarioUnknownAttack(t *testing.T) {
	if _, err := (Scenario{Attack: "quantum"}).Run(); err == nil {
		t.Error("unknown attack accepted")
	}
}

// TestScenarioRejectsInvalidValues: every invalid scenario is an error
// from Run before anything simulates, never a panic, a zero-step
// "success" or a silent substitution of the default.
func TestScenarioRejectsInvalidValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  Scenario
	}{
		{"NaN duration", Scenario{Duration: math.NaN()}},
		{"negative duration", Scenario{Duration: -5}},
		{"infinite duration", Scenario{Duration: math.Inf(1)}},
		{"negative infinite duration", Scenario{Duration: math.Inf(-1)}},
		{"over-long duration", Scenario{Duration: 1e300}},
		{"over-long recorded duration", Scenario{Duration: 1e300, RecordFrames: true}},
		{"duration just over the bound", Scenario{Duration: sim.MaxDuration + 0.01}},
		{"negative threshold scale", Scenario{ThresholdScale: -2}},
		{"NaN threshold scale", Scenario{ThresholdScale: math.NaN()}},
		{"infinite threshold scale", Scenario{ThresholdScale: math.Inf(1)}},
		{"NaN speed limit", Scenario{SpeedLimit: math.NaN()}},
		{"negative speed limit", Scenario{SpeedLimit: -1}},
		{"inverted attack window", Scenario{Attack: AttackStepSpoof, AttackStart: 30, AttackEnd: 10}},
		{"negative attack start", Scenario{Attack: AttackStepSpoof, AttackStart: -1}},
		{"NaN attack end", Scenario{Attack: AttackStepSpoof, AttackEnd: math.NaN()}},
		{"unknown controller", Scenario{Controller: "yolo"}},
		{"unknown localizer", Scenario{Localizer: "gps-only"}},
		{"unknown assertion", Scenario{Assertions: []string{"A1", "A99"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.scn.Canonicalize(); err == nil {
				t.Error("Canonicalize accepted it")
			}
			out, err := tc.scn.Run()
			if err == nil {
				t.Errorf("Run accepted it (%d steps)", out.Sim.Steps)
			}
		})
	}
}

// TestScenarioCanonicalize: defaults are filled in explicitly, a clean
// run's window is zeroed, assertions are sorted and deduplicated, and
// canonicalizing twice changes nothing.
func TestScenarioCanonicalize(t *testing.T) {
	got, err := Scenario{AttackStart: 5, AttackEnd: 9, Assertions: []string{"A3", "A1", "A3"}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Scenario{
		Track: TrackUrbanLoop, Controller: ControllerPurePursuit, Attack: AttackNone,
		Seed: 1, Duration: 70, SpeedLimit: 6, ThresholdScale: 1, Localizer: "ekf",
		Assertions: []string{"A1", "A3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonical = %+v, want %+v", got, want)
	}
	// An attacked scenario gets the default window, the one the
	// experiment harness runs (TestGridCellsRunDefaultWindow).
	attacked, err := Scenario{Attack: AttackDriftSpoof}.Canonicalize()
	if err != nil || attacked.AttackStart != attacks.DefaultOnset || attacked.AttackEnd != attacks.DefaultEnd {
		t.Errorf("attacked window = [%v, %v] (%v), want [%v, %v]", attacked.AttackStart, attacked.AttackEnd, err,
			attacks.DefaultOnset, attacks.DefaultEnd)
	}
	again, err := got.Canonicalize()
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("not idempotent: %+v -> %+v (%v)", got, again, err)
	}
	custom, err := TrackFromWaypoints("depot", []Waypoint{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 5}}, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Scenario{Track: "depot", CustomTrack: custom}).Canonicalize(); err != nil {
		t.Errorf("custom track rejected by name: %v", err)
	}
}

func TestCustomAssertionViaDSL(t *testing.T) {
	// A user-defined invariant: target speed must never exceed 10 m/s.
	a := BoundAssertion("U1", "user-speed-cap", "target speed <= 10", SeverityWarning,
		func(f Frame) (float64, bool) { return f.TargetSpeed, true }, 0, 10)
	m := NewMonitor()
	m.Add(a, Debounce{K: 1, N: 1})
	m.Step(Frame{T: 1, Dt: 0.05, TargetSpeed: 12})
	if len(m.Violations()) != 1 {
		t.Fatal("custom assertion did not fire")
	}
	if m.Violations()[0].AssertionID != "U1" {
		t.Error("wrong assertion id")
	}
}

func TestAttackNames(t *testing.T) {
	names := AttackNames()
	if len(names) != 12 {
		t.Errorf("attack names = %v", names)
	}
}

func TestRunExperimentByID(t *testing.T) {
	tb, err := RunExperiment("F4", ExperimentOptions{Quick: true, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tb.ID != "F4" || len(tb.Rows) == 0 {
		t.Errorf("experiment table = %+v", tb)
	}
	if _, err := RunExperiment("T99", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Experiments()) != 19 {
		t.Errorf("registry size = %d, want 19", len(Experiments()))
	}
}

func TestScenarioCustomTrackWithZones(t *testing.T) {
	base, err := TrackFromWaypoints("plant-route", []Waypoint{
		{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 80, Y: 15}, {X: 120, Y: 15}, {X: 170, Y: 0},
	}, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(SpeedZone{Start: 0, End: 20, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Scenario{CustomTrack: tr, Controller: ControllerLQRMPC, Duration: 90, RecordFrames: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Sim.Finished {
		t.Errorf("custom route not completed: progress %.1f m", out.Sim.ProgressTotal)
	}
	if len(out.Violations) != 0 {
		t.Errorf("clean custom route raised %v", out.Violations)
	}
	// The zone must cap the speed near route start.
	if v, ok := SignalTrace(out.Sim.Frames).At("target_speed", 3); !ok || v > 2.01 {
		t.Errorf("zone target speed = %.2f, want <= 2", v)
	}
}

func TestScenarioRecordFramesRoundtrip(t *testing.T) {
	out, err := Scenario{Attack: AttackStepSpoof, Duration: 40, RecordFrames: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Recording == nil || len(out.Recording.Frames) == 0 {
		t.Fatal("recording missing")
	}
	if out.Recording.Meta.Attack != string(AttackStepSpoof) {
		t.Errorf("meta = %+v", out.Recording.Meta)
	}
	var buf bytes.Buffer
	if err := out.Recording.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Offline re-monitoring reproduces the online violations exactly.
	vs := back.Monitor(CatalogConfig{IncludeGroundTruth: true})
	if len(vs) != len(out.Violations) {
		t.Errorf("offline %d vs online %d violations", len(vs), len(out.Violations))
	}
}

func TestSegmentizePublicAPI(t *testing.T) {
	vs := []Violation{
		{AssertionID: "A1", T: 20, Duration: 0.3},
		{AssertionID: "A5", T: 50, Duration: 10},
	}
	segs := Segmentize(vs, 5)
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	if !strings.Contains(SegmentReport(vs, 5), "incident 2") {
		t.Error("segment report missing incident 2")
	}
}

func TestMarkdownReportPublicAPI(t *testing.T) {
	out, err := Scenario{Attack: AttackFreeze, Duration: 40, RecordFrames: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.WriteMarkdownReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# ADAssure report", "## Detection", "gnss-freeze", "- comfort:", "## Signal summary"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
}

func TestScenarioComplementaryLocalizer(t *testing.T) {
	out, err := Scenario{Localizer: "complementary", Duration: 30}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Errorf("clean complementary run raised %v", out.Violations)
	}
	if out.Sim.MaxTrueCTE > 1 {
		t.Errorf("complementary tracking CTE %.2f m", out.Sim.MaxTrueCTE)
	}
	if _, err := (Scenario{Localizer: "kalman9000"}).Run(); err == nil {
		t.Error("unknown localizer accepted")
	}
}

func TestWriteComparisonReportPublicAPI(t *testing.T) {
	base := Scenario{Attack: AttackDriftSpoof, Seed: 3, Duration: 50}
	before, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	guarded := base
	guarded.Guarded = true
	after, err := guarded.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteComparisonReport(&buf, "cmp", before, after); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# cmp", "| before | after |", "max |true CTE|"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("comparison missing %q", want)
		}
	}
	if err := WriteComparisonReport(&buf, "x", nil, after); err == nil {
		t.Error("nil before accepted")
	}
}

// TestTraceIsOptIn: the signal trace is projected from recorded frames,
// which are opt-in. A run without RecordFrames records none; the Markdown
// report then refuses with an error naming the field rather than silently
// dropping its comfort line and signal summary; its forensic bundles carry
// neither frames nor a trace; and the comparison report, which reads no
// signal, needs none. With RecordFrames the report renders and every
// bundle carries its in-window frames and their trace.
func TestTraceIsOptIn(t *testing.T) {
	scn := Scenario{Attack: AttackDriftSpoof, Seed: 3, Duration: 40}
	out, err := scn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim.Frames != nil || out.Recording != nil {
		t.Fatal("a run without RecordFrames recorded frames")
	}
	err = out.WriteMarkdownReport(&bytes.Buffer{})
	if !errors.Is(err, errNoFrames) || !strings.Contains(fmt.Sprint(err), "Scenario.RecordFrames") {
		t.Errorf("WriteMarkdownReport without frames: err = %v, want one naming Scenario.RecordFrames", err)
	}
	bundles := out.ForensicBundles(0)
	if len(bundles) == 0 {
		t.Fatal("attacked run gave no bundles")
	}
	for _, b := range bundles {
		if b.Trace != nil || len(b.Frames) != 0 {
			t.Errorf("bundle %d: trace %v, %d frames; want neither", b.Index, b.Trace != nil, len(b.Frames))
		}
	}
	if err := WriteComparisonReport(&bytes.Buffer{}, "cmp", out, out); err != nil {
		t.Errorf("comparison of frame-free runs: %v", err)
	}

	scn.RecordFrames = true
	recorded, err := scn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Sim.Frames) != recorded.Sim.Steps {
		t.Fatalf("RecordFrames run has %d frames for %d steps", len(recorded.Sim.Frames), recorded.Sim.Steps)
	}
	if err := recorded.WriteMarkdownReport(&bytes.Buffer{}); err != nil {
		t.Errorf("WriteMarkdownReport with frames: %v", err)
	}
	for _, b := range recorded.ForensicBundles(0) {
		if b.Trace == nil || len(b.Frames) == 0 {
			t.Errorf("bundle %d of a RecordFrames run: trace %v, %d frames", b.Index, b.Trace != nil, len(b.Frames))
		}
	}
}

// runBytes is the mean heap bytes one run of s allocates, over n runs
// after a warm-up run (which resolves the shared built-in track).
func runBytes(t *testing.T, s Scenario, n int) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestFacadeRunAllocBytes pins that a façade run records no frames unless
// asked and seeds its noise sources cheaply: a clean 70 s urban-loop
// pure-pursuit run allocates about 16 KiB (17 KiB under -race). The
// 32 KiB ceiling is about twice that, so a return to math/rand sources
// (5,376 bytes each, about 47 KiB per run) fails it, and it sits far
// below the 416 KiB of frames a recording run holds: RecordFrames must
// add at least one 304-byte frame per control step, 1400 of them.
func TestFacadeRunAllocBytes(t *testing.T) {
	const ceiling, framesMin = 32 << 10, 1400 * 304
	plain := runBytes(t, Scenario{}, 10)
	if plain > ceiling {
		t.Errorf("unrecorded façade run allocates %.0f B, want ≤ %d", plain, ceiling)
	}
	recorded := runBytes(t, Scenario{RecordFrames: true}, 10)
	if recorded-plain < framesMin {
		t.Errorf("RecordFrames adds %.0f B (%.0f against %.0f), want ≥ %d", recorded-plain, recorded, plain, framesMin)
	}
	t.Logf("unrecorded %.0f B/run, recorded %.0f B/run", plain, recorded)
}

func TestRunMutationCampaignFacade(t *testing.T) {
	rep, err := RunMutationCampaign(MutationConfig{
		Campaign: CampaignConfig{Tracks: []string{"urban-loop"}, Duration: 20},
		Mutants:  []MutantSpec{{Op: "identity"}, {Op: "ctrl-gain-flip"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := rep.Score("ctrl-gain-flip"); !ok || !s.Killed {
		t.Errorf("gain-flip not killed: %+v", s)
	}
	if s, _ := rep.Score("identity"); s.Killed {
		t.Errorf("identity killed: %+v", s)
	}
	if len(DefaultMutantCatalog()) == 0 || len(MutantOps()) == 0 {
		t.Error("mutant catalog accessors empty")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMutationReport(&buf)
	if err != nil || back.MutationScore != rep.MutationScore {
		t.Errorf("report round trip failed: %v", err)
	}
}

// TestSharedBuiltinTrackConcurrentRuns runs scenarios on the same
// built-in tracks, whose paths every run shares, from several goroutines
// at once. Under -race it checks that nothing writes a shared path; in
// every mode each result must equal the same scenario run alone.
func TestSharedBuiltinTrackConcurrentRuns(t *testing.T) {
	var scenarios []Scenario
	for i, ctl := range []ControllerName{ControllerPurePursuit, ControllerStanley, ControllerPIDLateral, ControllerLQRMPC} {
		for _, tr := range []TrackName{TrackUrbanLoop, TrackFigureEight} {
			scenarios = append(scenarios, Scenario{Track: tr, Controller: ctl, Seed: int64(1 + i), Duration: 8})
		}
	}
	want := make([]*ScenarioResult, len(scenarios))
	for i, s := range scenarios {
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	got := make([]*ScenarioResult, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, s := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Run()
		}()
	}
	wg.Wait()
	for i := range scenarios {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if g, w := got[i].Sim.Final, want[i].Sim.Final; g != w || len(got[i].Violations) != len(want[i].Violations) {
			t.Errorf("%+v: concurrent run ended at %+v with %d violations, alone at %+v with %d",
				scenarios[i], g, len(got[i].Violations), w, len(want[i].Violations))
		}
	}
}
