package geom_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"adassure/internal/geom"
	"adassure/internal/track"
)

// refPath is the oracle for Polyline.Project and Polyline.ProjectRange: a
// scan of every segment in index order that keeps the first strict
// minimum, with the per-segment window test for ProjectRange. The pruned
// implementations must return the same bits.
type refPath struct {
	pts    []geom.Vec2
	cum    []float64
	closed bool
}

func newRefPath(p *geom.Polyline) *refPath {
	pts := p.Points()
	segs := len(pts) - 1
	if p.Closed() {
		segs = len(pts)
	}
	cum := make([]float64, segs+1)
	for i := 0; i < segs; i++ {
		cum[i+1] = cum[i] + pts[i].Dist(pts[(i+1)%len(pts)])
	}
	return &refPath{pts: pts, cum: cum, closed: p.Closed()}
}

func (r *refPath) length() float64 { return r.cum[len(r.cum)-1] }

// scan returns the closest point over the segments whose arc interval
// [lo, hi] keep admits; d2 is +Inf when no segment improved on it.
func (r *refPath) scan(q geom.Vec2, keep func(lo, hi float64) bool) (d2, s, lat float64) {
	d2 = math.Inf(1)
	for i := 0; i+1 < len(r.cum); i++ {
		if !keep(r.cum[i], r.cum[i+1]) {
			continue
		}
		a, b := r.pts[i], r.pts[(i+1)%len(r.pts)]
		ab := b.Sub(a)
		L2 := ab.NormSq()
		var t float64
		if L2 > 0 {
			t = geom.Clamp(q.Sub(a).Dot(ab)/L2, 0, 1)
		}
		cp := a.Lerp(b, t)
		if d := q.Sub(cp).NormSq(); d < d2 {
			d2 = d
			s = r.cum[i] + t*math.Sqrt(L2)
			lat = math.Copysign(math.Sqrt(d), ab.Cross(q.Sub(a)))
		}
	}
	return d2, s, lat
}

func (r *refPath) project(q geom.Vec2) (s, lat float64) {
	_, s, lat = r.scan(q, func(_, _ float64) bool { return true })
	return geom.Clamp(s, 0, r.length()), lat
}

func (r *refPath) projectRange(q geom.Vec2, s0, s1 float64) (s, lat float64) {
	if s1 <= s0 {
		return r.project(q)
	}
	L := r.length()
	if !r.closed {
		s0 = geom.Clamp(s0, 0, L)
		s1 = geom.Clamp(s1, 0, L)
		if s1 <= s0 {
			return r.project(q)
		}
	} else if s1-s0 >= L {
		return r.project(q)
	}
	inWindow := func(lo, hi float64) bool {
		if !r.closed {
			return hi >= s0 && lo <= s1
		}
		w0 := math.Mod(s0, L)
		if w0 < 0 {
			w0 += L
		}
		w1 := w0 + (s1 - s0)
		if w1 <= L {
			return hi >= w0 && lo <= w1
		}
		return hi >= w0 || lo <= w1-L
	}
	d2, s, lat := r.scan(q, inWindow)
	if math.IsInf(d2, 1) {
		return r.project(q)
	}
	return geom.Clamp(s, 0, L), lat
}

// differ compares one polyline against its oracle.
type differ struct {
	t    testing.TB
	name string
	p    *geom.Polyline
	ref  *refPath
}

func newDiffer(t testing.TB, name string, p *geom.Polyline) *differ {
	t.Helper()
	d := &differ{t: t, name: name, p: p, ref: newRefPath(p)}
	if !sameBits(p.Length(), d.ref.length()) {
		t.Fatalf("%s: oracle length %v != Length() %v", name, d.ref.length(), p.Length())
	}
	return d
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (d *differ) project(q geom.Vec2) {
	d.t.Helper()
	gs, gl := d.p.Project(q)
	ws, wl := d.ref.project(q)
	if !sameBits(gs, ws) || !sameBits(gl, wl) {
		d.t.Fatalf("%s: Project(%v) = (%v, %v), linear scan gives (%v, %v)", d.name, q, gs, gl, ws, wl)
	}
}

func (d *differ) projectRange(q geom.Vec2, s0, s1 float64) {
	d.t.Helper()
	gs, gl := d.p.ProjectRange(q, s0, s1)
	ws, wl := d.ref.projectRange(q, s0, s1)
	if !sameBits(gs, ws) || !sameBits(gl, wl) {
		d.t.Fatalf("%s: ProjectRange(%v, %v, %v) = (%v, %v), linear scan gives (%v, %v)",
			d.name, q, s0, s1, gs, gl, ws, wl)
	}
}

// windows checks the follower's window around the query's arc position
// plus the edge cases: tiny, segment-aligned, wrapped, inverted,
// out-of-range, whole-loop and non-finite windows.
func (d *differ) windows(q geom.Vec2, rng *rand.Rand) {
	d.t.Helper()
	L := d.ref.length()
	s, _ := d.ref.project(q)
	i := rng.Intn(len(d.ref.cum))
	j := min(i+1+rng.Intn(8), len(d.ref.cum)-1)
	// The segment q projects onto, and windows that end exactly where it
	// starts or start exactly where it ends: it is still in the window.
	iq := min(max(sort.SearchFloat64s(d.ref.cum, s)-1, 0), len(d.ref.cum)-2)
	segLo, segHi := d.ref.cum[iq], d.ref.cum[iq+1]
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range [][2]float64{
		{s - 15, s + 25}, // planner.Follower's window
		{s - 0.1, s + 0.1},
		{d.ref.cum[i], d.ref.cum[j]},
		{d.ref.cum[j], d.ref.cum[j]},
		{segLo - 5, segLo},
		{segHi, segHi + 5},
		{segHi - L, segHi + 5 - L},
		{L - 5, L + 5},
		{-5, 5},
		{L - 1e-9, L + 1e-9},
		{s + 40 - L, s + 40},
		{s + 1, s - 1},
		{L + 10, L + 20},
		{-30, -20},
		{-1e9, -1e9 + 40},
		{0, L},
		{s, s + L},
		{s - L, s + L},
		{nan, 5}, {0, nan}, {-inf, 10}, {10, inf}, {-inf, inf}, {inf, inf},
	} {
		d.projectRange(q, w[0], w[1])
	}
}

// queries checks points on the path, beside it at several offsets, on
// every vertex, far away and non-finite.
func (d *differ) queries(rng *rand.Rand, n int) {
	d.t.Helper()
	L := d.ref.length()
	for k := 0; k < n; k++ {
		s := rng.Float64() * L
		on := d.p.PointAt(s)
		normal := geom.V(1, 0).Rotate(d.p.HeadingAt(s)).Perp()
		off := []float64{0, 0.01, -0.01, 1, -1, 7.9, -8.1, 30, -30}[rng.Intn(9)]
		q := on.Add(normal.Scale(off))
		d.project(q)
		d.windows(q, rng)
		far := geom.V((rng.Float64()-0.5)*2e3, (rng.Float64()-0.5)*2e3)
		d.project(far)
		d.projectRange(far, s-15, s+25)
	}
	// Every vertex up to 600 of them, then an even spread; windows around
	// every 20th checked vertex.
	for k, i := 0, 0; i < len(d.ref.pts); k, i = k+1, i+max(1, len(d.ref.pts)/600) {
		d.project(d.ref.pts[i])
		if k%20 == 0 {
			d.windows(d.ref.pts[i], rng)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, q := range []geom.Vec2{
		{X: nan, Y: 0}, {X: 0, Y: nan}, {X: inf, Y: 0}, {X: -inf, Y: 3},
		{X: 1, Y: inf}, {X: 2, Y: -inf}, {X: inf, Y: inf}, {X: -inf, Y: inf},
		{X: 1e300, Y: -1e300}, {X: 1e6, Y: 0},
	} {
		d.project(q)
		d.windows(q, rng)
	}
}

func TestProjectMatchesLinearScanOnBuiltinTracks(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range track.Names(cat) {
		sp, ok := cat[name].Path().(*geom.Spline)
		if !ok {
			t.Fatalf("%s: path is %T, want *geom.Spline", name, cat[name].Path())
		}
		d := newDiffer(t, name, sp.Lattice())
		d.queries(rng, 150)
		if name == "figure-eight" {
			// The lemniscate crosses itself at the origin: both branches
			// are equally near, so the tie-break decides.
			for _, q := range []geom.Vec2{{}, {X: 1e-9, Y: -1e-9}, {X: 0.3, Y: 0}, {X: 0, Y: 0.3}, {X: -0.2, Y: 0.1}} {
				d.project(q)
				d.windows(q, rng)
			}
		}
	}
}

// randomPolyline returns a random open or closed polyline: scattered
// (self-intersecting), a random walk, or a tightly packed walk whose
// segments are near the constructor's dedup threshold.
func randomPolyline(rng *rand.Rand) (*geom.Polyline, string, error) {
	n := 3 + rng.Intn(300)
	closed := rng.Intn(2) == 0
	kind := rng.Intn(3)
	pts := make([]geom.Vec2, n)
	pos := geom.V(rng.Float64()*100, rng.Float64()*100)
	for i := range pts {
		switch kind {
		case 0:
			pts[i] = geom.V((rng.Float64()-0.5)*100, (rng.Float64()-0.5)*100)
		case 1:
			pos = pos.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()))
			pts[i] = pos
		default:
			pos = pos.Add(geom.V(rng.NormFloat64()*1e-9, rng.NormFloat64()*1e-9))
			pts[i] = pos.Add(geom.V(1e4, -1e4))
		}
	}
	name := fmt.Sprintf("polyline kind=%d n=%d closed=%v", kind, n, closed)
	if closed {
		p, err := geom.NewClosedPolyline(pts)
		return p, name, err
	}
	p, err := geom.NewPolyline(pts)
	return p, name, err
}

func TestProjectMatchesLinearScanOnRandomPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 40; k++ {
		p, name, err := randomPolyline(rng)
		if err != nil {
			continue // the tightly packed walk can collapse below three points
		}
		newDiffer(t, name, p).queries(rng, 25)

		ctrl := make([]geom.Vec2, 4+rng.Intn(8))
		for i := range ctrl {
			ctrl[i] = geom.V((rng.Float64()-0.5)*80, (rng.Float64()-0.5)*80)
		}
		closed := rng.Intn(2) == 0
		sp, err := geom.NewSpline(ctrl, geom.SplineOpts{Closed: closed})
		if err != nil {
			t.Fatalf("spline %d: %v", k, err)
		}
		newDiffer(t, fmt.Sprintf("spline %d closed=%v", k, closed), sp.Lattice()).queries(rng, 25)
	}
	// Longer paths, so the search runs over three or more superblocks.
	for k := 0; k < 6; k++ {
		n := 3*geom.SuperSegs + rng.Intn(4*geom.SuperSegs)
		pts := make([]geom.Vec2, n)
		pos := geom.V(0, 0)
		for i := range pts {
			pos = pos.Add(geom.V(rng.NormFloat64(), rng.NormFloat64()))
			pts[i] = pos
		}
		newPoly := geom.NewPolyline
		if k%2 == 0 {
			newPoly = geom.NewClosedPolyline
		}
		p, err := newPoly(pts)
		if err != nil {
			t.Fatal(err)
		}
		d := newDiffer(t, fmt.Sprintf("long walk %d closed=%v", k, k%2 == 0), p)
		if segs := len(d.ref.cum) - 1; segs <= 2*geom.SuperSegs {
			t.Fatalf("%s: %d segments, fewer than three superblocks", d.name, segs)
		}
		d.queries(rng, 15)

		ctrl := make([]geom.Vec2, 12+rng.Intn(12))
		for i := range ctrl {
			ctrl[i] = geom.V((rng.Float64()-0.5)*200, (rng.Float64()-0.5)*200)
		}
		sp, err := geom.NewSpline(ctrl, geom.SplineOpts{Closed: k%2 == 1})
		if err != nil {
			t.Fatalf("long spline %d: %v", k, err)
		}
		d = newDiffer(t, fmt.Sprintf("long spline %d closed=%v", k, k%2 == 1), sp.Lattice())
		if segs := len(d.ref.cum) - 1; segs <= 2*geom.SuperSegs {
			t.Fatalf("%s: %d segments, fewer than three superblocks", d.name, segs)
		}
		d.queries(rng, 15)
	}
}

// TestProjectTieBreakAcrossBlocks puts the query at the centre of
// resampled regular shapes, where many segments in different blocks are
// equally near: the first one in index order must win, as in the scan.
func TestProjectTieBreakAcrossBlocks(t *testing.T) {
	square, err := geom.NewClosedPolyline([]geom.Vec2{{X: -10, Y: -10}, {X: 10, Y: -10}, {X: 10, Y: 10}, {X: -10, Y: 10}})
	if err != nil {
		t.Fatal(err)
	}
	line, err := geom.NewPolyline([]geom.Vec2{{X: 0, Y: 0}, {X: 100, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name string
		p    *geom.Polyline
		ds   float64
	}{{"square", square, 0.25}, {"square-coarse", square, 1.3}, {"line", line, 0.5}} {
		r, err := c.p.Resample(c.ds)
		if err != nil {
			t.Fatal(err)
		}
		d := newDiffer(t, c.name, r)
		for _, q := range []geom.Vec2{{}, {X: 50, Y: 0}, {X: 50, Y: 3}, {X: 0.25, Y: 0}, {X: 10, Y: 10}, {X: -10, Y: 0}} {
			d.project(q)
			d.windows(q, rng)
		}
		d.queries(rng, 20)
	}
}

// TestProjectTieBreakAcrossSuperblocks uses a 64 m × 2 m rectangle of
// 0.25 m segments (528 segments, at least three superblocks) whose
// vertices and distances are exact. A point on the midline is exactly 1 m
// from both long sides, and at x = 32 also from the two bottom segments
// that meet at the first superblock boundary: the first segment in index
// order must win, as in the scan.
func TestProjectTieBreakAcrossSuperblocks(t *testing.T) {
	var pts []geom.Vec2
	for i := 0; i < 256; i++ {
		pts = append(pts, geom.V(float64(i)/4, 0))
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.V(64, float64(i)/4))
	}
	for i := 0; i < 256; i++ {
		pts = append(pts, geom.V(64-float64(i)/4, 2))
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.V(0, 2-float64(i)/4))
	}
	p, err := geom.NewClosedPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	d := newDiffer(t, "rectangle", p)
	if segs := len(d.ref.cum) - 1; segs <= 2*geom.SuperSegs {
		t.Fatalf("%d segments, fewer than three superblocks", segs)
	}
	boundary := float64(geom.SuperSegs) / 4 // x where superblock 0 ends on the bottom side
	if s, lat := p.Project(geom.V(boundary, 1)); s != boundary || lat != 1 {
		t.Fatalf("Project at the superblock boundary = (%v, %v), want (%v, 1) on the bottom side", s, lat, boundary)
	}
	rng := rand.New(rand.NewSource(4))
	for _, q := range []geom.Vec2{
		{X: boundary, Y: 1}, {X: boundary + 0.125, Y: 1}, {X: boundary - 0.125, Y: 1},
		{X: 2 * boundary, Y: 1}, {X: 3 * boundary, Y: 1}, {X: 1, Y: 1}, {X: 63, Y: 1},
		{X: boundary, Y: 0}, {X: boundary, Y: 2}, {X: 32, Y: -3}, {X: 32, Y: 5},
	} {
		d.project(q)
		d.windows(q, rng)
	}
	d.queries(rng, 40)
}

// FuzzProjectDifferential checks Project and ProjectRange against the
// linear scan on the lattice of an arbitrary spline and on the polyline
// through its control points, for any query and window (non-finite
// included).
func FuzzProjectDifferential(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 20.0, 5.0, 30.0, 5.0, false, 15.0, 2.0, 5.0, 20.0)
	f.Add(0.0, 0.0, 10.0, 0.0, 10.0, 10.0, 0.0, 10.0, true, 5.0, 5.0, 30.0, 50.0)
	f.Add(-20.0, 0.0, 0.0, 20.0, 20.0, 0.0, 0.0, -20.0, true, 0.0, 0.0, -5.0, 5.0)
	f.Add(0.0, 0.0, 30.0, 30.0, 30.0, 0.0, 0.0, 30.0, true, 15.0, 15.0, 1.0, 0.5)
	f.Add(0.0, 0.0, 10.0, 0.0, 20.0, 0.0, 30.0, 0.0, false, math.NaN(), 1.0, math.Inf(-1), math.Inf(1))
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4 float64, closed bool, qx, qy, s0, s1 float64) {
		ctrl := []geom.Vec2{{X: x1, Y: y1}, {X: x2, Y: y2}, {X: x3, Y: y3}, {X: x4, Y: y4}}
		for _, c := range ctrl {
			if math.IsNaN(c.X) || math.IsNaN(c.Y) || math.Abs(c.X) > geom.FuzzCoordBound || math.Abs(c.Y) > geom.FuzzCoordBound {
				t.Skip("out-of-scope input")
			}
		}
		q := geom.V(qx, qy)
		check := func(name string, p *geom.Polyline) {
			d := newDiffer(t, name, p)
			d.project(q)
			d.projectRange(q, s0, s1)
		}
		if sp, err := geom.NewSpline(ctrl, geom.SplineOpts{Closed: closed}); err == nil {
			check("spline", sp.Lattice())
		}
		newPoly := geom.NewPolyline
		if closed {
			newPoly = geom.NewClosedPolyline
		}
		if p, err := newPoly(ctrl); err == nil {
			check("polyline", p)
		}
	})
}

// TestProjectBoxPadCoversLerpRounding builds the case the box padding
// exists for. Segment 15 ends block 0 at vertex v, the block's rightmost
// point, and a.Lerp(v, 1) rounds one ULP past v, to c. Block 1 starts with
// a hair-short segment from v to a vertex just above c and holds the query
// q, which lies right of v. Segment 15's rounded point c is nearest q, but
// a box that stopped at v would put block 0 farther from q than block 1's
// vertex and prune it.
func TestProjectBoxPadCoversLerpRounding(t *testing.T) {
	v := geom.V(100.3, 7)
	var a geom.Vec2
	for k := 0; ; k++ {
		if k == 10000 {
			t.Fatal("no start point whose Lerp to v overshoots")
		}
		a = geom.V(0.1+float64(k)*0.0137, v.Y)
		if a.Lerp(v, 1).X > v.X {
			break
		}
	}
	c := geom.V(a.Lerp(v, 1).X, v.Y+1e-10)
	pts := make([]geom.Vec2, 0, 20)
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.V(a.X*float64(i)/15, v.Y-20))
	}
	pts = append(pts, a, v, c, geom.V(c.X, v.Y+5), geom.V(v.X+10, v.Y+5))
	p, err := geom.NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := v.Add(geom.V(1e-6, 0))
	if gap := q.X - v.X; q.Sub(c).NormSq() >= gap*gap*(1-0x1p-40) {
		t.Fatal("block 1's vertex is not nearer than an unpadded box 0; the case no longer needs the pad")
	}
	d := newDiffer(t, "pad", p)
	d.project(q)
	if s, _ := d.ref.project(q); s > d.ref.cum[16] {
		t.Fatalf("scan picked s=%v past segment 15; the case no longer needs the pad", s)
	}
}

func TestProjectDoesNotAllocate(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.Path().(*geom.Spline)
	q := sp.PointAt(100).Add(geom.V(0.3, -0.2))
	if n := testing.AllocsPerRun(100, func() { sp.Project(q) }); n != 0 {
		t.Errorf("Project allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sp.ProjectRange(q, 85, 125) }); n != 0 {
		t.Errorf("ProjectRange allocates %v times per call", n)
	}
}
