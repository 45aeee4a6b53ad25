package offline

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/sim"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// record runs one attacked simulation with frame recording enabled.
func record(t *testing.T, class attacks.Class) *Recording {
	t.Helper()
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attacks.Standard(class, attacks.Window{Start: 20, End: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Track: tr, Controller: "pure-pursuit", Seed: 1, Duration: 60,
		Campaign: camp, RecordFrames: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Recording{
		Meta:   Meta{Track: "urban-loop", Controller: "pure-pursuit", Attack: string(class), Seed: 1, Duration: 60},
		Frames: res.Frames,
	}
}

func TestRecordingCapturedAndValid(t *testing.T) {
	r := record(t, attacks.ClassStepSpoof)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// 60 s at 20 Hz → ~1200 frames.
	if n := len(r.Frames); n < 1100 || n > 1250 {
		t.Errorf("frame count = %d, want ~1200", n)
	}
	if r.Duration() < 55 {
		t.Errorf("duration = %g", r.Duration())
	}
}

func TestOfflineMonitorMatchesOnline(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attacks.Standard(attacks.ClassStepSpoof, attacks.Window{Start: 20, End: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.CatalogConfig{IncludeGroundTruth: true}
	online := core.NewCatalogMonitor(cfg)
	res, err := sim.Run(sim.Config{
		Track: tr, Controller: "pure-pursuit", Seed: 1, Duration: 60,
		Campaign: camp, Monitor: online, RecordFrames: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recording{Frames: res.Frames}
	offline := rec.Monitor(cfg)
	onlineVs := online.Violations()
	if len(offline) != len(onlineVs) {
		t.Fatalf("offline %d violations vs online %d", len(offline), len(onlineVs))
	}
	for i := range offline {
		if offline[i].AssertionID != onlineVs[i].AssertionID || offline[i].T != onlineVs[i].T {
			t.Fatalf("violation %d differs: offline %+v online %+v", i, offline[i], onlineVs[i])
		}
	}
}

func TestRecordingRoundtrip(t *testing.T) {
	r := record(t, attacks.ClassFreeze)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(r.Frames) {
		t.Fatalf("roundtrip frames %d vs %d", len(got.Frames), len(r.Frames))
	}
	if got.Meta != r.Meta {
		t.Errorf("meta roundtrip: %+v vs %+v", got.Meta, r.Meta)
	}
	// Violations identical after roundtrip.
	cfg := core.CatalogConfig{}
	a, b := r.Monitor(cfg), got.Monitor(cfg)
	if len(a) != len(b) {
		t.Errorf("roundtrip monitor mismatch: %d vs %d", len(a), len(b))
	}
}

// TestRecordingNoPositionEstimate: a recording holding frames without a
// position estimate (EstPosStdDev +Inf) writes and reads back unchanged.
func TestRecordingNoPositionEstimate(t *testing.T) {
	rec := &Recording{Frames: []core.Frame{
		{T: 1, EstPosStdDev: 0.2},
		{T: 1.05, EstPosStdDev: core.StdDev(math.Inf(1))},
	}}
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 2 || got.Frames[0] != rec.Frames[0] || got.Frames[1] != rec.Frames[1] {
		t.Errorf("frames read back as %+v, want %+v", got.Frames, rec.Frames)
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	if _, err := Read(strings.NewReader("{")); err == nil {
		t.Error("corrupt JSON accepted")
	}
	if _, err := Read(strings.NewReader(`{"meta":{},"frames":[]}`)); err == nil {
		t.Error("empty recording accepted")
	}
	bad := `{"meta":{},"frames":[{"T":5},{"T":1}]}`
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Error("out-of-order recording accepted")
	}
}

func TestDiagnoseOffline(t *testing.T) {
	r := record(t, attacks.ClassFreeze)
	hyps := r.Diagnose(core.CatalogConfig{IncludeGroundTruth: true})
	if len(hyps) == 0 || string(hyps[0].Cause) != string(attacks.ClassFreeze) {
		t.Errorf("offline diagnosis = %v", hyps[0].Cause)
	}
}

func TestDiffThresholds(t *testing.T) {
	r := record(t, attacks.ClassNone)
	// Default vs very tight thresholds: tight must add violations.
	diff := r.Diff(core.CatalogConfig{}, core.CatalogConfig{ThresholdScale: 0.3})
	if len(diff) == 0 {
		t.Fatal("tightening thresholds changed nothing on a noisy drive")
	}
	for _, d := range diff {
		if d.After < d.Before {
			t.Errorf("%s: tightening reduced episodes %d → %d", d.AssertionID, d.Before, d.After)
		}
	}
	// Identical configs diff to nothing.
	if diff := r.Diff(core.CatalogConfig{}, core.CatalogConfig{}); len(diff) != 0 {
		t.Errorf("identical configs produced diff %v", diff)
	}
}

func TestSlice(t *testing.T) {
	r := record(t, attacks.ClassStepSpoof)
	sub, err := r.Slice(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Duration() > 10.1 || sub.Duration() < 9 {
		t.Errorf("slice duration = %g", sub.Duration())
	}
	for _, f := range sub.Frames {
		if f.T < 20 || f.T > 30 {
			t.Fatalf("frame at %g escaped slice", f.T)
		}
	}
	if _, err := r.Slice(30, 20); err == nil {
		t.Error("inverted slice accepted")
	}
	if _, err := r.Slice(1e6, 2e6); err == nil {
		t.Error("empty slice accepted")
	}
}

func TestMonitorWithCustomSet(t *testing.T) {
	r := record(t, attacks.ClassStepSpoof)
	lim := core.DefaultLimits(vehicle.ShuttleParams())
	m := core.NewMonitor().Add(core.A1PositionJump(lim, 1), core.Debounce{K: 1, N: 1})
	vs := r.MonitorWith(m)
	if len(vs) == 0 {
		t.Fatal("A1-only monitor missed the step spoof")
	}
	for _, v := range vs {
		if v.AssertionID != "A1" {
			t.Fatalf("unexpected assertion %s", v.AssertionID)
		}
	}
	// Reusable: second replay gives identical results.
	vs2 := r.MonitorWith(m)
	if len(vs2) != len(vs) {
		t.Error("MonitorWith not reset between replays")
	}
}
