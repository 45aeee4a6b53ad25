package geom_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adassure/internal/geom"
	"adassure/internal/track"
)

// checkLookup asserts that PointAt, HeadingAt and CurvatureAt of p (and
// the spline's CurvatureAt, when sp is non-nil) give the reference
// lookup's bits at s.
func checkLookup(t testing.TB, name string, p *geom.Polyline, sp *geom.Spline, s float64) {
	t.Helper()
	if g, w := p.PointAt(s), p.RefPointAt(s); !sameBits(g.X, w.X) || !sameBits(g.Y, w.Y) {
		t.Fatalf("%s: PointAt(%v) = %v, reference %v", name, s, g, w)
	}
	if g, w := p.HeadingAt(s), p.RefHeadingAt(s); !sameBits(g, w) {
		t.Fatalf("%s: HeadingAt(%v) = %v, reference %v", name, s, g, w)
	}
	if g, w := p.CurvatureAt(s), p.RefCurvatureAt(s); !sameBits(g, w) {
		t.Fatalf("%s: CurvatureAt(%v) = %v, reference %v", name, s, g, w)
	}
	if sp != nil {
		if g, w := sp.CurvatureAt(s), sp.RefCurvatureAt(s); !sameBits(g, w) {
			t.Fatalf("%s: spline CurvatureAt(%v) = %v, reference %v", name, s, g, w)
		}
	}
}

// lookupQueries checks every vertex arc and its float neighbours, the
// special values, and n random arcs in [−2L, 3L].
func lookupQueries(t testing.TB, name string, p *geom.Polyline, sp *geom.Spline, rng *rand.Rand, n int) {
	t.Helper()
	cum := p.Cum()
	L := p.Length()
	for _, c := range cum {
		for _, s := range []float64{c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)), c + L, c - L} {
			checkLookup(t, name, p, sp, s)
		}
	}
	// The hint buckets' start arcs, where the bucket of s and its hint
	// can disagree by rounding.
	for b := 0; b+1 < len(cum); b++ {
		a := float64(b) * L / float64(len(cum)-1)
		for _, s := range []float64{a, math.Nextafter(a, math.Inf(-1)), math.Nextafter(a, math.Inf(1))} {
			checkLookup(t, name, p, sp, s)
		}
	}
	for _, s := range []float64{
		0, math.Copysign(0, -1), L, 2 * L, -L, 3 * L, math.Nextafter(2*L, 0), math.Nextafter(L, 0),
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.SmallestNonzeroFloat64,
	} {
		checkLookup(t, name, p, sp, s)
	}
	for k := 0; k < n; k++ {
		checkLookup(t, name, p, sp, (rng.Float64()*5-2)*L)
	}
}

func TestLookupMatchesReferenceOnBuiltinTracks(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, name := range track.Names(cat) {
		sp := cat[name].Path().(*geom.Spline)
		lookupQueries(t, name, sp.Lattice(), sp, rng, 20000)
	}
}

func TestLookupMatchesReferenceOnRandomPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 40; k++ {
		if p, name, err := randomPolyline(rng); err == nil {
			lookupQueries(t, name, p, nil, rng, 500)
		}
		ctrl := make([]geom.Vec2, 4+rng.Intn(8))
		for i := range ctrl {
			ctrl[i] = geom.V((rng.Float64()-0.5)*80, (rng.Float64()-0.5)*80)
		}
		closed := rng.Intn(2) == 0
		sp, err := geom.NewSpline(ctrl, geom.SplineOpts{Closed: closed})
		if err != nil {
			t.Fatalf("spline %d: %v", k, err)
		}
		lookupQueries(t, fmt.Sprintf("spline %d closed=%v", k, closed), sp.Lattice(), sp, rng, 500)
	}
}

// TestLookupWithRepeatedArcs uses hops so short beside a 1 km segment
// that adding them leaves cum unchanged: the lookup must pick the same
// one of the equal entries as the binary search.
func TestLookupWithRepeatedArcs(t *testing.T) {
	pts := []geom.Vec2{{}, {X: 1e6}, {X: 1e6, Y: 2e-12}, {X: 1e6, Y: 4e-12}, {X: 1e6, Y: 6e-12}, {X: 1e6 + 3, Y: 5}, {X: 1e6, Y: 10}}
	rng := rand.New(rand.NewSource(6))
	for _, closed := range []bool{false, true} {
		newPoly := geom.NewPolyline
		if closed {
			newPoly = geom.NewClosedPolyline
		}
		p, err := newPoly(pts)
		if err != nil {
			t.Fatal(err)
		}
		cum := p.Cum()
		if cum[1] != cum[2] || cum[2] != cum[4] {
			t.Fatalf("cum %v has no repeated entries; the case no longer tests them", cum)
		}
		lookupQueries(t, fmt.Sprintf("repeated closed=%v", closed), p, nil, rng, 2000)
	}
}

// TestLookupOnBucketAlignedVertices uses a unit staircase: every vertex
// arc is an integer and starts a hint bucket, so the hint lands on the
// vertex at s and the lookup must step back to the segment ending there.
func TestLookupOnBucketAlignedVertices(t *testing.T) {
	pts := make([]geom.Vec2, 41)
	for i := range pts {
		pts[i] = geom.V(float64((i+1)/2), float64(i/2))
	}
	rng := rand.New(rand.NewSource(8))
	for _, closed := range []bool{false, true} {
		newPoly := geom.NewPolyline
		if closed {
			newPoly = geom.NewClosedPolyline
		}
		p, err := newPoly(pts)
		if err != nil {
			t.Fatal(err)
		}
		lookupQueries(t, fmt.Sprintf("staircase closed=%v", closed), p, nil, rng, 200)
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.Path().(*geom.Spline)
	L := sp.Length()
	if n := testing.AllocsPerRun(100, func() { sp.CurvatureAt(L + 12.5) }); n != 0 {
		t.Errorf("CurvatureAt allocates %v times per call", n)
	}
	pts := sp.Lattice().Points()
	// The clean vertices, cum, the block boxes and the Polyline, plus the
	// segment hint table.
	if n := testing.AllocsPerRun(20, func() { _, _ = geom.NewClosedPolyline(pts) }); n > 5 {
		t.Errorf("NewClosedPolyline allocates %v times, want at most 5", n)
	}
}
