package control

import (
	"math"
	"testing"

	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/planner"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// globalRef is the reference of est projected over the whole path, for
// tests that drive a controller without a follower.
func globalRef(path geom.Path, est fusion.Estimate) *Reference {
	s, cte := path.Project(est.Pose.Pos)
	ref := NewReference(path, est, s, cte, 0)
	return &ref
}

// driveLoop runs a lateral controller closed-loop against the kinematic
// plant with perfect localization, returning the max |CTE| after an initial
// settling distance and the number of steering sign changes per second.
func driveLoop(t *testing.T, ctrl Lateral, tr *track.Track, p vehicle.Params, dur float64) (maxCTE, signChangesPerSec float64) {
	t.Helper()
	model := vehicle.NewKinematic(p)
	sp, err := planner.NewSpeedProfile(tr.Path(), tr.SpeedLimit(), p)
	if err != nil {
		t.Fatal(err)
	}
	speedCtl := NewSpeedPID(p)
	ctrl.Reset()
	speedCtl.Reset()

	progress, err := planner.NewProgress(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	start := tr.StartPose()
	st := vehicle.State{X: start.Pos.X, Y: start.Pos.Y, Heading: start.Heading, Speed: 1}
	const dt = 0.02
	settle := 5.0 // seconds before CTE counts
	var prevSteer float64
	var signChanges int
	elapsed := settle
	for tm := 0.0; tm < dur && !progress.Finished(); tm += dt {
		elapsed = tm
		est := fusion.Estimate{
			T:       tm,
			Pose:    geom.Pose{Pos: geom.V(st.X, st.Y), Heading: st.Heading},
			Speed:   st.Speed,
			YawRate: st.YawRate,
		}
		s, cte := tr.Path().Project(est.Pose.Pos)
		progress.Observe(s)
		ref := NewReference(tr.Path(), est, s, cte, 0)
		steer := ctrl.Steer(est, &ref, dt)
		accel := speedCtl.Accel(st.Speed, sp.TargetAt(s), dt)
		st = model.Step(st, vehicle.Command{Steer: steer, Accel: accel}, dt)
		if tm > settle {
			if a := math.Abs(cte); a > maxCTE {
				maxCTE = a
			}
			if prevSteer*steer < 0 && math.Abs(steer-prevSteer) > 0.01 {
				signChanges++
			}
		}
		prevSteer = steer
	}
	if elapsed <= settle {
		t.Fatalf("route finished before the settling window (%.1fs)", elapsed)
	}
	return maxCTE, float64(signChanges) / (elapsed - settle)
}

func tracksFor(t *testing.T) []*track.Track {
	t.Helper()
	var out []*track.Track
	mk := func(tr *track.Track, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	mk(track.Circle(25, 6))
	mk(track.UrbanLoop(6))
	mk(track.FigureEight(30, 6))
	mk(track.SCurve(8, 6))
	return out
}

func TestAllControllersTrackStandardRoutes(t *testing.T) {
	p := vehicle.ShuttleParams()
	for _, ctrl := range All(p) {
		for _, tr := range tracksFor(t) {
			maxCTE, _ := driveLoop(t, ctrl, tr, p, 90)
			if maxCTE > 1.0 {
				t.Errorf("%s on %s: max CTE %.2f m exceeds 1 m", ctrl.Name(), tr.Name(), maxCTE)
			}
			if maxCTE == 0 {
				t.Errorf("%s on %s: CTE identically zero — loop not exercising the plant", ctrl.Name(), tr.Name())
			}
		}
	}
}

func TestPurePursuitCutsCornersMoreThanLQR(t *testing.T) {
	// The documented pure-pursuit weakness — corner-cutting — scales with
	// lookahead distance, i.e. with speed. Drive the hairpin fast enough
	// that the lookahead chord spans a significant arc.
	p := vehicle.SedanParams()
	tr, err := track.Hairpin(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	ppCTE, _ := driveLoop(t, NewPurePursuit(p), tr, p, 60)
	lqrCTE, _ := driveLoop(t, NewLQRMPC(p), tr, p, 60)
	if ppCTE <= lqrCTE {
		t.Errorf("expected pure pursuit (%.3f m) to cut the hairpin more than LQR (%.3f m)", ppCTE, lqrCTE)
	}
}

func TestStanleyOscillatesAtHighSpeed(t *testing.T) {
	p := vehicle.SedanParams()
	tr, err := track.Straight(600, 22)
	if err != nil {
		t.Fatal(err)
	}
	_, stanleyOsc := driveLoop(t, NewStanley(p), tr, p, 30)
	_, lqrOsc := driveLoop(t, NewLQRMPC(p), tr, p, 30)
	// The documented Stanley weakness: steering sign-change rate at speed.
	if stanleyOsc <= lqrOsc {
		t.Logf("stanley=%.2f/s lqr=%.2f/s", stanleyOsc, lqrOsc)
	}
	if stanleyOsc > 5 { // should oscillate but not be unstable on a straight
		t.Errorf("stanley oscillation %.2f/s looks unstable", stanleyOsc)
	}
}

func TestControllersRecoverFromLateralOffset(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Straight(300, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctrl := range All(p) {
		ctrl.Reset()
		model := vehicle.NewKinematic(p)
		st := vehicle.State{X: 0, Y: 3, Heading: 0, Speed: 4} // 3 m off the path
		speedCtl := NewSpeedPID(p)
		const dt = 0.02
		var finalCTE float64
		for tm := 0.0; tm < 30; tm += dt {
			est := fusion.Estimate{Pose: geom.Pose{Pos: geom.V(st.X, st.Y), Heading: st.Heading}, Speed: st.Speed, YawRate: st.YawRate}
			steer := ctrl.Steer(est, globalRef(tr.Path(), est), dt)
			accel := speedCtl.Accel(st.Speed, 4, dt)
			st = model.Step(st, vehicle.Command{Steer: steer, Accel: accel}, dt)
			_, finalCTE = tr.Path().Project(geom.V(st.X, st.Y))
		}
		if math.Abs(finalCTE) > 0.3 {
			t.Errorf("%s failed to converge from 3 m offset: final CTE %.3f", ctrl.Name(), finalCTE)
		}
	}
}

func TestSteerOutputsFinite(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate inputs: zero speed, far off path, reversed heading.
	ests := []fusion.Estimate{
		{Pose: geom.NewPose(0, 0, 0), Speed: 0},
		{Pose: geom.NewPose(500, 500, math.Pi), Speed: 8},
		{Pose: geom.NewPose(45, 35, -math.Pi/2), Speed: 0.001},
	}
	for _, ctrl := range All(p) {
		ctrl.Reset()
		for _, est := range ests {
			if d := ctrl.Steer(est, globalRef(tr.Path(), est), 0.02); math.IsNaN(d) || math.IsInf(d, 0) {
				t.Errorf("%s returned non-finite steer for %v", ctrl.Name(), est.Pose)
			}
		}
	}
}

func TestSpeedPIDConvergesToTarget(t *testing.T) {
	p := vehicle.ShuttleParams()
	model := vehicle.NewKinematic(p)
	ctl := NewSpeedPID(p)
	st := vehicle.State{Speed: 0}
	const dt = 0.02
	for tm := 0.0; tm < 20; tm += dt {
		st = model.Step(st, vehicle.Command{Accel: ctl.Accel(st.Speed, 5, dt)}, dt)
	}
	if math.Abs(st.Speed-5) > 0.15 {
		t.Errorf("speed %.3f after 20 s, want ~5", st.Speed)
	}
	// Deceleration.
	for tm := 0.0; tm < 20; tm += dt {
		st = model.Step(st, vehicle.Command{Accel: ctl.Accel(st.Speed, 2, dt)}, dt)
	}
	if math.Abs(st.Speed-2) > 0.15 {
		t.Errorf("speed %.3f after decel, want ~2", st.Speed)
	}
}

func TestSpeedPIDRespectsEnvelope(t *testing.T) {
	p := vehicle.ShuttleParams()
	ctl := NewSpeedPID(p)
	if a := ctl.Accel(0, 100, 0.02); a > p.MaxAccel+1e-9 {
		t.Errorf("accel %g exceeds envelope %g", a, p.MaxAccel)
	}
	ctl.Reset()
	if a := ctl.Accel(100, 0, 0.02); a < -p.MaxBrake-1e-9 {
		t.Errorf("brake %g exceeds envelope %g", a, p.MaxBrake)
	}
}

func TestPIDLateralIntegratorClamped(t *testing.T) {
	p := vehicle.ShuttleParams()
	c := NewPIDLateral(p)
	tr, err := track.Straight(300, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Hold a constant large offset for a long time: integrator must clamp.
	est := fusion.Estimate{Pose: geom.NewPose(50, 10, 0), Speed: 4}
	for i := 0; i < 10000; i++ {
		c.Steer(est, globalRef(tr.Path(), est), 0.02)
	}
	if math.Abs(c.integral) > pidIntegralLimit+1e-9 {
		t.Errorf("integrator %g escaped clamp %g", c.integral, pidIntegralLimit)
	}
	c.Reset()
	if c.integral != 0 || c.derivState != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestLQRGainCache(t *testing.T) {
	p := vehicle.ShuttleParams()
	c := NewLQRMPC(p)
	g1 := c.gainFor(3.0)
	g2 := c.gainFor(3.1) // same 0.5 m/s bucket
	if g1 != g2 {
		t.Error("same-bucket speeds produced different gains")
	}
	g3 := c.gainFor(6.0)
	if g1 == g3 {
		t.Error("distinct speeds produced identical gains")
	}
	// Gains must be stabilising in sign: positive error (left of path)
	// should produce negative (rightward) steering.
	est := fusion.Estimate{Pose: geom.NewPose(0, 2, 0), Speed: 4}
	tr, err := track.Straight(300, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Steer(est, globalRef(tr.Path(), est), 0.02); d >= 0 {
		t.Errorf("LQR steer %g should be negative for +2 m CTE", d)
	}
}

func TestByName(t *testing.T) {
	p := vehicle.ShuttleParams()
	for _, want := range []string{"pure-pursuit", "stanley", "pid-lateral", "lqr-mpc"} {
		c, err := ByName(want, p)
		if err != nil || c.Name() != want {
			t.Errorf("ByName(%q) = %v, %v", want, c, err)
		}
	}
	if _, err := ByName("nope", p); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestAllReturnsFourDistinct(t *testing.T) {
	cs := All(vehicle.ShuttleParams())
	if len(cs) != 4 {
		t.Fatalf("All returned %d controllers", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.Name()] {
			t.Errorf("duplicate controller %s", c.Name())
		}
		seen[c.Name()] = true
	}
}

// TestCrossingSteersOnReferenceBranch drives the figure-eight's crossing,
// where the globally nearest path point of a position can lie on the
// other lobe. Every controller is handed the reference on the branch
// being driven (as the run's windowed follower computes it) and must
// steer along that branch; the global projection, which each controller
// used to compute on its own, lands on the other branch here and would
// command a sharp turn.
func TestCrossingSteersOnReferenceBranch(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.FigureEight(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	path := tr.Path()
	rp := path.(geom.RangeProjector)
	L := path.Length()
	// The lobes cross at s = 0 (branch B) and near s = L/2 (branch A).
	crossing := path.PointAt(0)
	sA := L / 2
	for s := L / 4; s < 3*L/4; s += 0.001 {
		if path.PointAt(s).Dist(crossing) < path.PointAt(sA).Dist(crossing) {
			sA = s
		}
	}
	hA := path.HeadingAt(sA)
	dirA, dirB := geom.NewPose(0, 0, hA).Forward(), geom.NewPose(0, 0, path.HeadingAt(0)).Forward()
	onBranchA := func(est fusion.Estimate) *Reference {
		s, cte := rp.ProjectRange(est.Pose.Pos, sA-20, sA+20)
		ref := NewReference(path, est, s, cte, 0)
		return &ref
	}
	offA := func(s float64) bool {
		d := math.Abs(s - sA)
		return math.Min(d, L-d) > 20
	}

	// The estimate sits 0.3 m down branch B from the crossing, heading
	// along branch A: branch B is nearest to it, and the follower holds it
	// on branch A.
	q := crossing.Add(dirB.Scale(0.3))
	est := fusion.Estimate{Pose: geom.Pose{Pos: q, Heading: hA}, Speed: 4}
	if g := globalRef(path, est); !offA(g.S) {
		t.Fatalf("the global projection (s=%.2f) is on branch A (s=%.2f); the test needs it on branch B", g.S, sA)
	}
	for _, ctrl := range All(p) {
		if ctrl.Name() == "stanley" {
			continue // it projects its front axle, checked below
		}
		ctrl.Reset()
		if d := ctrl.Steer(est, onBranchA(est), 0.05); math.Abs(d) > 0.25 {
			t.Errorf("%s steers %.3f rad at the crossing; along branch A it should stay near straight", ctrl.Name(), d)
		}
		ctrl.Reset()
		if d := ctrl.Steer(est, globalRef(path, est), 0.05); math.Abs(d) < 0.4 {
			t.Errorf("%s steers %.3f rad from branch B's reference; the test cannot tell the branches apart", ctrl.Name(), d)
		}
	}

	// Stanley: the front axle sits 0.3 m down branch B from the crossing,
	// the rear axle one wheelbase back along branch A.
	front := crossing.Add(dirB.Scale(0.3))
	est = fusion.Estimate{Pose: geom.Pose{Pos: front.Sub(dirA.Scale(p.Wheelbase)), Heading: hA}, Speed: 4}
	if sg, _ := path.Project(front); !offA(sg) {
		t.Fatalf("the front axle's global projection (s=%.2f) is on branch A; the test needs it on branch B", sg)
	}
	if d := NewStanley(p).Steer(est, onBranchA(est), 0.05); math.Abs(d) > 0.25 {
		t.Errorf("stanley steers %.3f rad at the crossing; its front axle should project onto branch A", d)
	}
}
