package core

import (
	"math"
	"testing"
	"testing/quick"

	"adassure/internal/fusion"
	"adassure/internal/vehicle"
)

func testLimits() Limits {
	return DefaultLimits(vehicle.ShuttleParams())
}

// goodFrame builds a nominal in-motion frame at time t: on path, fresh
// sensors, consistent speeds and headings.
func goodFrame(t float64) Frame {
	return Frame{
		T: t, Dt: 0.05,
		EstX: 5 * t, EstY: 0, EstHeading: 0, EstSpeed: 5, EstYawRate: 0,
		GNSSX: 5 * t, GNSSY: 0, GNSSSpeed: 5, GNSSCourse: 0, GNSSAge: 0.02, GNSSValid: true,
		IMUHeading: 0, IMUYawRate: 0, IMUAccel: 0, IMUAge: 0.01,
		OdomSpeed: 5, OdomAge: 0.01,
		CmdSteer: 0, CmdAccel: 0,
		RefS: 5 * t, CTE: 0.05, HeadingErr: 0.01, Curvature: 0,
		TargetSpeed: 5, Progress: 5 * t,
		NIS: 1, NISFresh: true, RejectStreak: 0,
		TrueX: 5 * t, TrueY: 0, TrueHeading: 0, TrueSpeed: 5, TrueCTE: 0.05,
	}
}

// eval evaluates a on a copy of f and returns the outcome.
func eval(a Assertion, f Frame) Outcome {
	var out Outcome
	a.Eval(&f, &out)
	return out
}

func TestCatalogCleanStream(t *testing.T) {
	m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	for i := 0; i < 400; i++ {
		m.Step(goodFrame(float64(i) * 0.05))
	}
	if n := len(m.Violations()); n != 0 {
		t.Fatalf("clean synthetic stream raised %d violations: %v", n, m.FiredIDs())
	}
}

func TestCatalogIDsAndSizes(t *testing.T) {
	entries := NewCatalog(CatalogConfig{Limits: testLimits()})
	if len(entries) != 14 {
		t.Fatalf("online catalog has %d entries, want 14", len(entries))
	}
	withGT := NewCatalog(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	if len(withGT) != 15 {
		t.Fatalf("ground-truth catalog has %d entries, want 15", len(withGT))
	}
	seen := map[string]bool{}
	for _, e := range withGT {
		if e.Assertion.ID() == "" || e.Assertion.Name() == "" || e.Assertion.Description() == "" {
			t.Errorf("catalog entry %q missing metadata", e.Assertion.ID())
		}
		if seen[e.Assertion.ID()] {
			t.Errorf("duplicate id %s", e.Assertion.ID())
		}
		seen[e.Assertion.ID()] = true
		if err := e.Debounce.Validate(); err != nil {
			t.Errorf("%s: %v", e.Assertion.ID(), err)
		}
	}
	for _, id := range []string{"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13", "A14", "A15"} {
		if !seen[id] {
			t.Errorf("catalog missing %s", id)
		}
	}
}

// TestCatalogMonitorWithRejectsNonFiniteScale: a NaN or infinite scale is
// an error, not a panic inside A11's window construction.
func TestCatalogMonitorWithRejectsNonFiniteScale(t *testing.T) {
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewCatalogMonitorWith(CatalogConfig{ThresholdScale: k}, nil); err == nil {
			t.Errorf("threshold scale %v accepted", k)
		}
	}
	if _, err := NewCatalogMonitorWith(CatalogConfig{ThresholdScale: 2}, nil); err != nil {
		t.Errorf("threshold scale 2 rejected: %v", err)
	}
}

// runCatalog feeds frames and returns fired IDs.
func runCatalog(t *testing.T, frames []Frame) []string {
	t.Helper()
	m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	for _, f := range frames {
		m.Step(f)
	}
	return m.FiredIDs()
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func TestA1FiresOnPositionJump(t *testing.T) {
	var frames []Frame
	for i := 0; i < 40; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i == 30 {
			f.GNSSY += 8 // 8 m teleport between fixes
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A1") {
		t.Errorf("A1 silent on 8 m jump: fired %v", ids)
	}
}

func TestA1IgnoresSameFixAcrossFrames(t *testing.T) {
	// Same fix fresh on two consecutive frames must not imply motion.
	lim := testLimits()
	a := A1PositionJump(lim, 1)
	f1 := goodFrame(1.0)
	f1.GNSSAge = 0.0
	eval(a, f1) // seeds history
	f2 := goodFrame(1.05)
	f2.GNSSX = f1.GNSSX // same fix content
	f2.GNSSAge = 0.05   // same fix, older
	if out := eval(a, f2); !out.Skip {
		t.Errorf("same fix should be skipped, got %+v", out)
	}
}

func TestA2FiresOnCrossTrack(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.CTE = 2.2
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A2") {
		t.Errorf("A2 silent on 2.2 m CTE: fired %v", ids)
	}
}

func TestA2SkipsWhenStationary(t *testing.T) {
	a := A2CrossTrack(testLimits(), 1)
	f := goodFrame(0)
	f.EstSpeed = 0.1
	f.CTE = 50
	if out := eval(a, f); !out.Skip {
		t.Error("A2 should skip when stationary")
	}
}

func TestA3FiresOnCourseDivergence(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.GNSSCourse = 1.2 // course 1.2 rad off IMU heading 0
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A3") {
		t.Errorf("A3 silent on course divergence: fired %v", ids)
	}
}

func TestA3SkipsDuringHardYaw(t *testing.T) {
	a := A3HeadingConsistency(testLimits(), 1)
	f := goodFrame(0)
	f.IMUYawRate = 0.5
	f.GNSSCourse = 2
	if out := eval(a, f); !out.Skip {
		t.Error("A3 should skip during hard yaw")
	}
}

func TestA4FiresOnSpeedMismatch(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.GNSSSpeed = 0.1 // frozen fix: derived speed collapses
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A4") {
		t.Errorf("A4 silent on speed mismatch: fired %v", ids)
	}
}

func TestA5FiresOnStaleGNSS(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.GNSSAge = 0.8
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A5") {
		t.Errorf("A5 silent on stale fix: fired %v", ids)
	}
}

func TestA6FiresOnUnexplainedSteering(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.CmdSteer = 0.5 // hard steer on a straight with tiny errors
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A6") {
		t.Errorf("A6 silent on unexplained steering: fired %v", ids)
	}
}

func TestA6AllowsSteeringForUpcomingCorner(t *testing.T) {
	a := A6SteeringCurvature(testLimits(), 1)
	f := goodFrame(0)
	f.CurvAheadMax = 0.15 // corner ahead
	f.CmdSteer = math.Atan(0.15 * 2.8)
	if out := eval(a, f); !out.OK {
		t.Errorf("anticipatory steering should pass: %+v", out)
	}
}

func TestA7FiresOnLateralAccel(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.EstSpeed = 7
			f.EstYawRate = 1.0 // 7 m/s² lateral
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A7") {
		t.Errorf("A7 silent on 7 m/s² lateral: fired %v", ids)
	}
}

func TestA8FiresOnJerk(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i >= 30 && i%2 == 0 {
			f.CmdAccel = 1.5
		} else if i >= 30 {
			f.CmdAccel = -3
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A8") {
		t.Errorf("A8 silent on slamming accel: fired %v", ids)
	}
}

// TestA8FiresOutsideCommandEnvelope: a smooth acceleration command past
// the vehicle's envelope breaks no jerk bound but fails A8's envelope
// clause, while a command exactly at the envelope (a saturated pristine
// controller) passes at every threshold scale.
func TestA8FiresOutsideCommandEnvelope(t *testing.T) {
	lim := testLimits()
	for _, k := range []float64{0.5, 1, 2} {
		a := A8Jerk(lim, k)
		for _, v := range []float64{lim.MaxAccel, -lim.MaxBrake} {
			a.Reset()
			for i := 0; i < 3; i++ {
				f := goodFrame(float64(i) * 0.05)
				f.CmdAccel = v
				if out := eval(a, f); !out.OK && !out.Skip {
					t.Errorf("k=%g: command %g at the envelope failed: %+v", k, v, out)
				}
			}
		}
	}
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		f.CmdAccel = math.Min(0.05*float64(i), 2.5) // 1 m/s³, far below the jerk bound
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A8") {
		t.Errorf("A8 silent on a command ramping past MaxAccel: fired %v", ids)
	}
	a := A8Jerk(lim, 1)
	f := goodFrame(0)
	f.CmdAccel = 3
	out := eval(a, f)
	if hi, ok := out.Evidence.Get("hi"); out.OK || !ok || hi != lim.MaxAccel {
		t.Errorf("first frame past the envelope: %+v, want a failure citing hi=%g", out, lim.MaxAccel)
	}
}

func TestA9FiresOnProgressRegression(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.Progress -= 20 // teleported backward along the route
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A9") {
		t.Errorf("A9 silent on progress regression: fired %v", ids)
	}
}

func TestA10FiresOnHighNIS(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.NIS = 200
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A10") {
		t.Errorf("A10 silent on NIS 200: fired %v", ids)
	}
}

func TestA10SkipsStaleNIS(t *testing.T) {
	a := A10InnovationGate(testLimits(), 1)
	f := goodFrame(0)
	f.NIS = 500
	f.NISFresh = false
	if out := eval(a, f); !out.Skip {
		t.Error("A10 should skip when no update was attempted")
	}
}

func TestA11FiresOnOscillation(t *testing.T) {
	var frames []Frame
	steer := 0.2
	for i := 0; i < 120; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			steer = -steer
			f.CmdSteer = steer
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A11") {
		t.Errorf("A11 silent on bang-bang steering: fired %v", ids)
	}
}

func TestA12FiresOnTrueDeviation(t *testing.T) {
	var frames []Frame
	for i := 0; i < 60; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 30 {
			f.TrueCTE = 5 // physically off the corridor, belief fine
		}
		frames = append(frames, f)
	}
	ids := runCatalog(t, frames)
	if !contains(ids, "A12") {
		t.Errorf("A12 silent on true deviation: fired %v", ids)
	}
}

func TestA13FiresOnHeadingDrag(t *testing.T) {
	var frames []Frame
	for i := 0; i < 400; i++ {
		f := goodFrame(float64(i) * 0.05)
		if i > 100 {
			f.EstHeading = 0.15 // fused heading dragged; IMU stays at 0
		}
		frames = append(frames, f)
	}
	if ids := runCatalog(t, frames); !contains(ids, "A13") {
		t.Errorf("A13 silent on fused-heading drag: fired %v", ids)
	}
}

func TestThresholdScaleLoosens(t *testing.T) {
	// With a large threshold scale, the CTE breach that fires at scale 1
	// stays silent.
	mk := func(scale float64) []string {
		m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), ThresholdScale: scale})
		for i := 0; i < 60; i++ {
			f := goodFrame(float64(i) * 0.05)
			if i > 30 {
				f.CTE = 2.2
			}
			m.Step(f)
		}
		return m.FiredIDs()
	}
	if ids := mk(1); !contains(ids, "A2") {
		t.Fatalf("scale 1 should fire A2: %v", ids)
	}
	if ids := mk(3); contains(ids, "A2") {
		t.Errorf("scale 3 should not fire A2: %v", ids)
	}
}

func TestDebounceOverride(t *testing.T) {
	// Forcing 1-of-1 should raise A2 on the very first breach frame.
	m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), Debounce: Debounce{K: 1, N: 1}})
	f := goodFrame(0)
	f.CTE = 3
	m.Step(f)
	if !contains(m.FiredIDs(), "A2") {
		t.Error("1-of-1 override should fire immediately")
	}
}

func TestFrameFinite(t *testing.T) {
	f := goodFrame(0)
	if !f.Finite() {
		t.Error("good frame reported non-finite")
	}
	f.EstHeading = math.Inf(1)
	if f.Finite() {
		t.Error("infinite heading reported finite")
	}
}

// TestDefaultLimits pins the catalog's fixed values to their one
// definition: a zero CatalogConfig judges the shuttle the simulator
// drives, and A10 gates at the fusion filter's own χ² threshold.
func TestDefaultLimits(t *testing.T) {
	var cfg CatalogConfig
	cfg.defaults()
	if want := DefaultLimits(vehicle.ShuttleParams()); cfg.Limits != want {
		t.Errorf("catalog default limits %+v, want the shuttle's %+v", cfg.Limits, want)
	}
	a := A10InnovationGate(cfg.Limits, 1)
	f := goodFrame(0)
	f.NISFresh = true
	f.NIS = fusion.DefaultGate
	if out := eval(a, f); out.Skip || !out.OK {
		t.Errorf("A10 at NIS %g = fusion.DefaultGate: %+v, want a pass", f.NIS, out)
	}
	f.NIS = math.Nextafter(fusion.DefaultGate, math.Inf(1))
	if out := eval(a, f); out.Skip || out.OK {
		t.Errorf("A10 just above fusion.DefaultGate: %+v, want a violation", out)
	}
}

// TestCatalogRobustToArbitraryFrames fuzzes the full catalog with random
// (including non-finite) frame contents: the monitor must never panic and
// must keep producing finite evidence.
func TestCatalogRobustToArbitraryFrames(t *testing.T) {
	m := NewCatalogMonitor(CatalogConfig{Limits: testLimits(), IncludeGroundTruth: true})
	f := func(vals [24]float64, flags uint8) bool {
		fr := Frame{
			T: math.Abs(vals[0]), Dt: 0.05,
			EstX: vals[1], EstY: vals[2], EstHeading: vals[3], EstSpeed: vals[4],
			EstYawRate: vals[5], EstPosStdDev: StdDev(vals[6]),
			GNSSX: vals[7], GNSSY: vals[8], GNSSSpeed: vals[9], GNSSCourse: vals[10],
			GNSSAge: math.Abs(vals[11]), GNSSValid: flags&1 != 0,
			IMUHeading: vals[12], IMUYawRate: vals[13], IMUAccel: vals[14], IMUAge: math.Abs(vals[15]),
			OdomSpeed: vals[16], OdomAge: math.Abs(vals[17]),
			CmdSteer: vals[18], CmdAccel: vals[19],
			RefS: vals[20], CTE: vals[21], HeadingErr: vals[22], Curvature: vals[23],
			NISFresh: flags&2 != 0,
		}
		m.Step(fr) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// latticeFrame builds an in-motion frame at step i whose GNSS position is
// the true diagonal trajectory plus deterministic pseudo-noise, optionally
// snapped to a q-metre grid (q <= 0 leaves the feed continuous).
func latticeFrame(i int, q float64) Frame {
	t := float64(i) * 0.05
	// Deterministic sub-noise-scale dither standing in for receiver noise.
	nx := 0.12 * math.Sin(13.7*float64(i)+0.3)
	ny := 0.12 * math.Sin(9.1*float64(i)+1.1)
	gx := 3.5*t + nx
	gy := 3.5*t + ny
	if q > 0 {
		gx = math.Round(gx/q) * q
		gy = math.Round(gy/q) * q
	}
	f := goodFrame(t)
	f.EstX, f.EstY, f.EstHeading = 3.5*t, 3.5*t, math.Pi/4
	f.TrueX, f.TrueY, f.TrueHeading = 3.5*t, 3.5*t, math.Pi/4
	f.GNSSX, f.GNSSY, f.GNSSCourse = gx, gy, math.Pi/4
	f.IMUHeading = math.Pi / 4
	f.Progress = 5 * t
	return f
}

// TestA15FiresOnQuantizedFeed: positions snapped to a 0.25 m grid — well
// below the receiver noise floor — put every consecutive-fix delta on
// exact multiples of the pitch, and the lattice detector must fire even
// though every amplitude-based check stays quiet.
func TestA15FiresOnQuantizedFeed(t *testing.T) {
	for _, q := range []float64{0.05, 0.25, 1.0} {
		var frames []Frame
		for i := 0; i < 200; i++ {
			frames = append(frames, latticeFrame(i, q))
		}
		if ids := runCatalog(t, frames); !contains(ids, "A15") {
			t.Errorf("A15 silent on %g m quantization lattice: fired %v", q, ids)
		}
	}
}

// TestA15QuietOnContinuousFeed: the same trajectory with continuous noisy
// positions must not trip the lattice detector — the folded GCD of
// incommensurate deltas collapses far below the grid floor.
func TestA15QuietOnContinuousFeed(t *testing.T) {
	var frames []Frame
	for i := 0; i < 400; i++ {
		frames = append(frames, latticeFrame(i, 0))
	}
	if ids := runCatalog(t, frames); contains(ids, "A15") {
		t.Error("A15 fired on a continuous noisy feed (false positive)")
	}
}

// TestA15QuietOnConstantDeltas: dead-constant motion (goodFrame's exact
// 0.25 m steps with zero noise) has a large GCD by construction but only
// one distinct multiple — the degenerate-lattice guard must hold it back.
func TestA15QuietOnConstantDeltas(t *testing.T) {
	var frames []Frame
	for i := 0; i < 400; i++ {
		frames = append(frames, goodFrame(float64(i)*0.05))
	}
	if ids := runCatalog(t, frames); contains(ids, "A15") {
		t.Error("A15 fired on constant-delta motion (degenerate lattice)")
	}
}
