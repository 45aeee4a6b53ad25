package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func circleControls(r float64, n int) []Vec2 {
	pts := make([]Vec2, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = V(r*math.Cos(a), r*math.Sin(a))
	}
	return pts
}

func TestSplineRejectsDegenerate(t *testing.T) {
	if _, err := NewSpline(nil, SplineOpts{}); err == nil {
		t.Error("nil controls should fail")
	}
	if _, err := NewSpline([]Vec2{{0, 0}, {1, 1}}, SplineOpts{Closed: true}); err == nil {
		t.Error("2-point closed spline should fail")
	}
	if _, err := NewSpline([]Vec2{{0, 0}, {math.Inf(1), 0}}, SplineOpts{}); err == nil {
		t.Error("inf control should fail")
	}
}

func TestSplineInterpolatesControls(t *testing.T) {
	ctrl := []Vec2{{0, 0}, {5, 2}, {10, -1}, {15, 4}}
	sp, err := NewSpline(ctrl, SplineOpts{Spacing: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctrl {
		s, lat := sp.Project(c)
		if math.Abs(lat) > 0.02 {
			t.Errorf("control %v is %.4f m off the spline (s=%.2f)", c, lat, s)
		}
	}
}

func TestSplineCircleGeometry(t *testing.T) {
	const r = 20.0
	sp, err := NewSpline(circleControls(r, 24), SplineOpts{Spacing: 0.2, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Closed() {
		t.Fatal("circle spline should be closed")
	}
	wantLen := 2 * math.Pi * r
	if math.Abs(sp.Length()-wantLen) > 0.02*wantLen {
		t.Errorf("circle length = %.2f, want ~%.2f", sp.Length(), wantLen)
	}
	// Curvature ≈ 1/r everywhere (CCW circle → positive).
	for i := 0; i < 50; i++ {
		s := sp.Length() * float64(i) / 50
		k := sp.CurvatureAt(s)
		if math.Abs(k-1/r) > 0.15/r {
			t.Fatalf("curvature at s=%.1f is %.5f, want ~%.5f", s, k, 1/r)
		}
	}
	// Points lie on the circle.
	for i := 0; i < 50; i++ {
		s := sp.Length() * float64(i) / 50
		if d := math.Abs(sp.PointAt(s).Norm() - r); d > 0.05 {
			t.Fatalf("point at s=%.1f is %.3f m off the circle", s, d)
		}
	}
}

func TestSplineHeadingTangency(t *testing.T) {
	const r = 15.0
	sp, err := NewSpline(circleControls(r, 24), SplineOpts{Spacing: 0.2, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	// On a CCW circle the tangent is perpendicular to the radius, rotated +90°.
	for i := 0; i < 40; i++ {
		s := sp.Length() * float64(i) / 40
		p := sp.PointAt(s)
		want := p.Unit().Perp().Angle()
		got := sp.HeadingAt(s)
		if math.Abs(AngleDiff(got, want)) > 0.05 {
			t.Fatalf("heading at s=%.1f: got %.3f want %.3f", s, got, want)
		}
	}
}

func TestSplineStraightLineZeroCurvature(t *testing.T) {
	sp, err := NewSpline([]Vec2{{0, 0}, {10, 0}, {20, 0}, {30, 0}}, SplineOpts{Spacing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 20; i++ {
		s := sp.Length() * float64(i) / 20
		if k := math.Abs(sp.CurvatureAt(s)); k > 1e-6 {
			t.Fatalf("straight spline curvature at s=%.1f = %g", s, k)
		}
	}
	approx(t, sp.Length(), 30, 0.01, "straight length")
}

func TestSplineProjectProperty(t *testing.T) {
	sp, err := NewSpline(circleControls(25, 20), SplineOpts{Spacing: 0.25, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	f := func(frac, off float64) bool {
		if math.IsNaN(frac) || math.IsNaN(off) || math.IsInf(frac, 0) || math.IsInf(off, 0) {
			return true
		}
		frac = math.Abs(math.Mod(frac, 1))
		off = math.Mod(off, 3) // offsets well inside the circle radius
		s := frac * sp.Length()
		// Displace a path point laterally; projection must recover the offset.
		p := sp.PointAt(s)
		n := V(math.Cos(sp.HeadingAt(s)), math.Sin(sp.HeadingAt(s))).Perp()
		q := p.Add(n.Scale(off))
		_, lat := sp.Project(q)
		return math.Abs(lat-off) < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSplineControlPointsCopied(t *testing.T) {
	ctrl := []Vec2{{0, 0}, {1, 0}, {2, 1}}
	sp, err := NewSpline(ctrl, SplineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got := sp.ControlPoints()
	got[0] = V(99, 99)
	if sp.ControlPoints()[0] == V(99, 99) {
		t.Error("ControlPoints must return a copy")
	}
}

// TestCurvatureBoundCoversCurvature checks CurvatureBound against
// CurvatureAt on random open and closed splines: at every lattice vertex
// of the range, one ULP either side of it, midway along each segment and
// at the range's ends, |κ| must not exceed the bound.
func TestCurvatureBoundCoversCurvature(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 40; k++ {
		ctrl := make([]Vec2, 4+rng.Intn(10))
		for i := range ctrl {
			ctrl[i] = V((rng.Float64()-0.5)*60, (rng.Float64()-0.5)*60)
		}
		closed := k%2 == 0
		sp, err := NewSpline(ctrl, SplineOpts{Closed: closed, Spacing: 0.05 + rng.Float64()*0.4})
		if err != nil {
			t.Fatal(err)
		}
		L := sp.Length()
		cum := sp.lattice.cum
		for r := 0; r < 30; r++ {
			s0 := rng.Float64() * L
			s1 := math.Min(L, s0+rng.Float64()*rng.Float64()*L)
			bound := sp.CurvatureBound(s0, s1)
			check := func(s float64) {
				if s < s0 || s > s1 {
					return
				}
				if c := math.Abs(sp.CurvatureAt(s)); !(c <= bound) {
					t.Fatalf("spline %d closed=%v: |CurvatureAt(%v)| = %v above CurvatureBound(%v, %v) = %v",
						k, closed, s, c, s0, s1, bound)
				}
			}
			check(s0)
			check(s1)
			i0 := sort.SearchFloat64s(cum, s0)
			for i := max(i0-1, 0); i < len(cum) && cum[i] <= s1; i++ {
				check(cum[i])
				check(math.Nextafter(cum[i], math.Inf(-1)))
				check(math.Nextafter(cum[i], math.Inf(1)))
				if i+1 < len(cum) {
					check((cum[i] + cum[i+1]) / 2)
				}
			}
		}
		// Swapped ends bound the same range.
		if a, b := sp.CurvatureBound(L/3, L/2), sp.CurvatureBound(L/2, L/3); a != b {
			t.Fatalf("spline %d: CurvatureBound depends on the order of its ends: %v vs %v", k, a, b)
		}
	}
}

// TestCurvatureBoundNaN: a NaN curvature sample makes its block's bound
// +Inf, and a range that reaches the block reports it.
func TestCurvatureBoundNaN(t *testing.T) {
	sp, err := NewSpline(circleControls(20, 24), SplineOpts{Spacing: 0.25, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	kappa := append([]float64(nil), sp.kappa...)
	kappa[3*blockSegs+5] = math.NaN()
	kmax := blockCurvature(kappa, len(sp.lattice.cum)-1)
	for b, m := range kmax {
		if inf := math.IsInf(m, 1); inf != (b == 3) {
			t.Errorf("block %d: bound %v", b, m)
		}
	}
}
