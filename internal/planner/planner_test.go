package planner

import (
	"math"
	"testing"

	"adassure/internal/geom"

	"adassure/internal/track"
	"adassure/internal/vehicle"
)

func TestNewSpeedProfileValidation(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpeedProfile(nil, 8, p); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := NewSpeedProfile(tr.Path(), 0, p); err == nil {
		t.Error("zero limit accepted")
	}
	bad := p
	bad.Wheelbase = -1
	if _, err := NewSpeedProfile(tr.Path(), 8, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSpeedProfileStraightHitsLimit(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Straight(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 6, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.TargetAt(100); math.Abs(v-6) > 1e-9 {
		t.Errorf("straight target = %g, want 6", v)
	}
}

func TestSpeedProfileRespectsLateralAccel(t *testing.T) {
	p := vehicle.ShuttleParams()
	tr, err := track.Circle(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 20, p)
	if err != nil {
		t.Fatal(err)
	}
	// v² κ ≤ a_lat → v ≤ sqrt(2.5·10) ≈ 5.
	want := math.Sqrt(p.MaxLatAccel * 10)
	v := sp.TargetAt(5)
	if v > want*1.1 {
		t.Errorf("circle target %g exceeds lateral-accel bound %g", v, want)
	}
	if v < want*0.7 {
		t.Errorf("circle target %g suspiciously below bound %g", v, want)
	}
}

func TestSpeedProfileCapsAtVehicleMaxSpeed(t *testing.T) {
	p := vehicle.ShuttleParams() // MaxSpeed 8
	tr, err := track.Straight(200, 50)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 50, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.TargetAt(100); v > p.MaxSpeed+1e-9 {
		t.Errorf("target %g exceeds vehicle max %g", v, p.MaxSpeed)
	}
}

func TestSpeedProfileBrakesBeforeCorner(t *testing.T) {
	p := vehicle.SedanParams()
	tr, err := track.Hairpin(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfile(tr.Path(), 20, p)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the hairpin apex (max curvature).
	L := tr.Path().Length()
	apexS, maxK := 0.0, 0.0
	for i := 0; i < 400; i++ {
		s := L * float64(i) / 400
		if k := math.Abs(tr.Path().CurvatureAt(s)); k > maxK {
			maxK, apexS = k, s
		}
	}
	vApex := sp.TargetAt(apexS)
	// 20 m before the apex the preview must already slow the car below
	// the straight-line limit.
	vBefore := sp.TargetAt(apexS - 20)
	if vBefore >= 20 {
		t.Errorf("no braking preview: v(-20m)=%g", vBefore)
	}
	// And the preview speed must be consistent with comfort braking into
	// the apex speed: v² ≤ vApex² + 2·a·d.
	bound := math.Sqrt(vApex*vApex + 2*(p.MaxBrake*0.7)*20)
	if vBefore > bound+0.5 {
		t.Errorf("preview speed %g violates braking feasibility %g", vBefore, bound)
	}
}

func TestProgressOpenRoute(t *testing.T) {
	tr, err := track.Straight(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProgress(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	pr.Observe(0)
	pr.Observe(10)
	pr.Observe(9.5) // projection jitter backward
	pr.Observe(50)
	if got := pr.Total(); math.Abs(got-50) > 1e-9 {
		t.Errorf("total = %g, want 50", got)
	}
	if pr.Finished() {
		t.Error("finished too early")
	}
	pr.Observe(99.5)
	if !pr.Finished() {
		t.Error("should be finished near the end")
	}
}

func TestProgressClosedLapWrap(t *testing.T) {
	tr, err := track.Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	L := tr.Path().Length()
	pr, err := NewProgress(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Sweep a bit over two laps in 1 m increments (projection wraps at L).
	dist := 2*L + 5
	total := 0.0
	for d := 0.0; d <= dist; d += 1 {
		total = pr.Observe(math.Mod(d, L))
	}
	if math.Abs(total-dist) > 2 {
		t.Errorf("progress = %g, want ~%g", total, dist)
	}
	if pr.Laps() != 2 {
		t.Errorf("laps = %d, want 2", pr.Laps())
	}
	if pr.Finished() {
		t.Error("closed route should never report finished")
	}
}

func TestProgressNilPath(t *testing.T) {
	if _, err := NewProgress(nil); err == nil {
		t.Error("nil path accepted")
	}
}

func TestSpeedProfileHonoursZones(t *testing.T) {
	p := vehicle.ShuttleParams()
	base, err := track.Straight(300, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(track.SpeedZone{Start: 100, End: 150, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpeedProfileForTrack(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := sp.TargetAt(120); v > 2+1e-9 {
		t.Errorf("target inside zone = %g, want <= 2", v)
	}
	if v := sp.TargetAt(200); v < 7 {
		t.Errorf("target outside zone = %g, want ~8", v)
	}
	// Braking preview: approaching the zone, the target must already drop
	// so the zone entry speed is reachable under comfort braking.
	vBefore := sp.TargetAt(95)
	bound := math.Sqrt(2*2 + 2*(p.MaxBrake*0.7)*5)
	if vBefore > bound+0.3 {
		t.Errorf("approach speed %g violates braking feasibility %g", vBefore, bound)
	}
	if _, err := NewSpeedProfileForTrack(nil, p); err == nil {
		t.Error("nil track accepted")
	}
}

func TestFollowerSticksToBranchOnFigureEight(t *testing.T) {
	tr, err := track.FigureEight(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Walk the whole loop in 0.5 m steps with small lateral noise; the
	// follower's arc position must advance monotonically (mod wrap) even
	// through the self-intersection at the centre.
	L := tr.Path().Length()
	prev := -1.0
	for d := 0.0; d < L-1; d += 0.5 {
		q := tr.Path().PointAt(d)
		s, lat := f.Project(q)
		if math.Abs(lat) > 0.05 {
			t.Fatalf("on-path point at d=%.1f got lateral %.3f", d, lat)
		}
		if prev >= 0 && s < prev-2 {
			t.Fatalf("follower jumped backwards at d=%.1f: %.1f after %.1f", d, s, prev)
		}
		prev = s
	}
}

func TestFollowerReacquiresAfterTeleport(t *testing.T) {
	tr, err := track.Straight(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(tr.Path())
	if err != nil {
		t.Fatal(err)
	}
	f.Project(geom.V(10, 0))
	// Teleport 100 m ahead (beyond the window): must re-acquire globally.
	s, lat := f.Project(geom.V(110, 0.2))
	if math.Abs(s-110) > 1 {
		t.Errorf("teleport re-acquire s=%.1f, want ~110", s)
	}
	if math.Abs(lat-0.2) > 0.05 {
		t.Errorf("teleport lateral = %.2f", lat)
	}
	if _, err := NewFollower(nil); err == nil {
		t.Error("nil path accepted")
	}
}

// TestFollowerReacquiresAfterJumpBack covers a replayed fix: the estimate
// jumps further back than the window's back edge but stays well inside
// followMaxLat, so the windowed answer is the back edge and the follower
// must re-acquire globally. On the closed loop the jump crosses the seam.
func TestFollowerReacquiresAfterJumpBack(t *testing.T) {
	straight, err := track.Straight(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := track.Circle(30, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		path       geom.Path
		from, back float64
	}{
		{"straight", straight.Path(), 100, 18},
		{"loop-across-seam", loop.Path(), loop.Path().Length() + 2, 18},
	} {
		f, err := NewFollower(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		L := tc.path.Length()
		for d := 0.0; d <= tc.from; d += 0.5 {
			f.Project(tc.path.PointAt(d))
		}
		want := math.Mod(tc.from-tc.back+L, L)
		q := tc.path.PointAt(want).Add(geom.V(0, 0.1).Rotate(tc.path.HeadingAt(want)))
		s, lat := f.Project(q)
		if math.Abs(s-want) > 0.05 || math.Abs(lat-0.1) > 0.01 {
			t.Errorf("%s: jump back %g m projected to s=%.2f lat=%.3f, want s=%.2f lat=0.1", tc.name, tc.back, s, lat, want)
		}
	}
}

// TestFollowerKeepsBranchAcrossSeam drives over the seam of a closed
// figure-eight whose seam is its crossing, to a point globally nearer the
// other branch: the forward step across the seam is a small move, not a
// jump past the window, so the follower must stay on its branch.
func TestFollowerKeepsBranchAcrossSeam(t *testing.T) {
	path, err := geom.NewClosedPolyline([]geom.Vec2{
		{X: 0, Y: 0}, {X: 10, Y: 10}, {X: 20, Y: 0}, {X: 10, Y: -10}, {X: 0, Y: 0},
		{X: -10, Y: 10}, {X: -20, Y: 0}, {X: -10, Y: -10},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(path)
	if err != nil {
		t.Fatal(err)
	}
	L := path.Length()
	for d := L - 10; d < L-0.2; d += 0.5 {
		f.Project(path.PointAt(d))
	}
	q := geom.V(0.2, -0.05)
	if sg, _ := path.Project(q); sg < 1 || sg > L-1 {
		t.Fatalf("global projection s=%.2f already on the driven branch; the case tests nothing", sg)
	}
	if s, _ := f.Project(q); s > 1 && s < L-1 {
		t.Errorf("follower left its branch across the seam: s=%.2f on a %.1f m loop", s, L)
	}
}
