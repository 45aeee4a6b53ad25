package mutate

import (
	"math"
	"testing"

	"adassure/internal/control"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/vehicle"
)

// TestLookaheadSkipShiftsStanley pins the off-by-N semantics of
// ctrl-lookahead-skip on Stanley, which projects its front axle itself:
// the mutant must read the heading Param metres past the front axle's
// projection, whether Param is inside Stanley's projection window or
// beyond it, and so steer differently from the pristine controller.
func TestLookaheadSkipShiftsStanley(t *testing.T) {
	params := vehicle.ShuttleParams()
	const radius = 20.0
	pts := make([]geom.Vec2, 72)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(len(pts))
		pts[i] = geom.V(radius*math.Cos(a), radius*math.Sin(a))
	}
	path, err := geom.NewClosedPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, param := range []float64{8, 30} {
		pristine := control.NewStanley(params)
		m := &mutatedLateral{inner: control.NewStanley(params), spec: Spec{Op: OpLookaheadSkip, Param: param}}
		for i := 0; i < 40; i++ {
			a := 0.15 * float64(i)
			r := radius + 0.4*math.Sin(float64(i))
			est := fusion.Estimate{Pose: geom.NewPose(r*math.Cos(a), r*math.Sin(a), a+math.Pi/2+0.05), Speed: 5}
			s, cte := path.Project(est.Pose.Pos)
			ref := control.NewReference(path, est, s, cte, 0)
			got := m.Steer(est, &ref, 0.05)
			plain := pristine.Steer(est, &ref, 0.05)

			// The shifted front-axle projection, computed globally: a
			// circle has one nearest point. The cross-track term is the
			// pristine command less its unshifted heading term.
			front := est.Pose.Pos.Add(est.Pose.Forward().Scale(params.Wheelbase))
			sf, _ := path.Project(front)
			cross := plain - geom.AngleDiff(path.HeadingAt(sf), est.Pose.Heading)
			want := geom.AngleDiff(path.HeadingAt(sf+param), est.Pose.Heading) + cross
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("param %g step %d: steer %.12f, want %.12f (shifted front axle)", param, i, got, want)
			}
			if math.Abs(got-plain) < 0.1 {
				t.Fatalf("param %g step %d: mutant steer %.6f too close to pristine %.6f", param, i, got, plain)
			}
		}
	}
}
