package geom

import (
	"fmt"
	"math"
)

// Spline is a centripetal Catmull-Rom spline through a set of control
// points, arc-length parameterised by dense resampling. It produces the
// smooth reference paths the track library feeds to the controllers:
// C1-continuous position with a well-behaved curvature estimate.
//
// The spline is evaluated through an internal fine polyline (the "lattice")
// so that PointAt/Project run in time independent of the analytic form;
// curvature is computed analytically from the spline derivatives and
// sampled onto the lattice.
type Spline struct {
	ctrl    []Vec2
	closed  bool
	lattice *Polyline
	// kappa[i] is the analytic curvature at lattice vertex i.
	kappa []float64
	// kmax[b] bounds |CurvatureAt| over lattice block b (see
	// CurvatureBound).
	kmax []float64
}

// CurvatureBounder is implemented by paths that can bound their curvature
// over an arc range. The speed planner finds it by type assertion and uses
// it to skip braking-preview samples that cannot lower its target.
type CurvatureBounder interface {
	// CurvatureBound returns a K with |CurvatureAt(s)| ≤ K for every s
	// whose wrapped (closed) or clamped (open) arc position lies in
	// [s0, s1]; it is +Inf where a curvature sample is NaN.
	CurvatureBound(s0, s1 float64) float64
}

// SplineOpts configures spline construction.
type SplineOpts struct {
	// Spacing is the lattice resample spacing in metres (default 0.25).
	Spacing float64
	// Closed makes the spline a loop through the control points.
	Closed bool
}

// NewSpline fits a centripetal Catmull-Rom spline through the control
// points. Open splines require ≥ 2 points, closed splines ≥ 3.
func NewSpline(ctrl []Vec2, opts SplineOpts) (*Spline, error) {
	spacing := opts.Spacing
	if spacing <= 0 {
		spacing = 0.25
	}
	clean := make([]Vec2, 0, len(ctrl))
	for _, p := range ctrl {
		if !p.IsFinite() {
			return nil, fmt.Errorf("%w: non-finite control point %v", ErrDegeneratePath, p)
		}
		if len(clean) > 0 && clean[len(clean)-1].Dist(p) < 1e-9 {
			continue
		}
		clean = append(clean, p)
	}
	if opts.Closed && len(clean) > 1 && clean[0].Dist(clean[len(clean)-1]) < 1e-9 {
		clean = clean[:len(clean)-1]
	}
	min := 2
	if opts.Closed {
		min = 3
	}
	if len(clean) < min {
		return nil, fmt.Errorf("%w: spline needs >= %d distinct control points, got %d",
			ErrDegeneratePath, min, len(clean))
	}

	s := &Spline{ctrl: clean, closed: opts.Closed}
	pts, kap := s.sample(spacing)
	var lat *Polyline
	var err error
	if opts.Closed {
		lat, err = NewClosedPolyline(pts)
	} else {
		lat, err = NewPolyline(pts)
	}
	if err != nil {
		return nil, err
	}
	s.lattice = lat
	s.kappa = kap
	s.kmax = blockCurvature(kap, len(lat.cum)-1)
	return s, nil
}

// blockCurvature returns, per block of blockSegs lattice segments, a bound
// on the |κ| that CurvatureAt interpolates from the kappa entries its
// segments read (i and (i+1) mod len(kappa)). With t in [0, 1], rounding
// can lift |kappa[i]*(1-t)+kappa[j]*t| above the larger endpoint by a few
// ULPs, which the relative 2^-40 pad covers; the absolute 2^-1000 covers
// subnormal products. A NaN entry makes the bound +Inf.
func blockCurvature(kappa []float64, nSeg int) []float64 {
	kmax := make([]float64, (nSeg+blockSegs-1)/blockSegs)
	for b := range kmax {
		m := 0.0
		for i := b * blockSegs; i < min((b+1)*blockSegs, nSeg); i++ {
			for _, k := range [2]float64{kappa[i], kappa[(i+1)%len(kappa)]} {
				if math.IsNaN(k) {
					k = math.Inf(1)
				}
				m = max(m, math.Abs(k))
			}
		}
		kmax[b] = m*(1+0x1p-40) + 0x1p-1000
	}
	return kmax
}

// controlAt returns control point i with end handling: closed splines wrap,
// open splines clamp (which duplicates the end tangent — standard practice).
func (s *Spline) controlAt(i int) Vec2 {
	n := len(s.ctrl)
	if s.closed {
		return s.ctrl[((i%n)+n)%n]
	}
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s.ctrl[i]
}

// segEval evaluates the centripetal Catmull-Rom segment between control
// points i and i+1 at parameter u ∈ [0,1], returning position and the first
// and second parametric derivatives.
func (s *Spline) segEval(i int, u float64) (p, dp, ddp Vec2) {
	p0 := s.controlAt(i - 1)
	p1 := s.controlAt(i)
	p2 := s.controlAt(i + 1)
	p3 := s.controlAt(i + 2)

	// Centripetal knot spacing (alpha = 0.5) converted to a uniform-basis
	// segment via tangent scaling. Compute non-uniform parameter values.
	t0 := 0.0
	t1 := t0 + math.Sqrt(p0.Dist(p1))
	t2 := t1 + math.Sqrt(p1.Dist(p2))
	t3 := t2 + math.Sqrt(p2.Dist(p3))
	// Guard repeated points (possible at clamped open ends).
	if t1 == t0 {
		t1 = t0 + 1e-9
	}
	if t2 <= t1 {
		t2 = t1 + 1e-9
	}
	if t3 <= t2 {
		t3 = t2 + 1e-9
	}

	// Tangents at p1 and p2 (Catmull-Rom with non-uniform knots).
	m1 := p1.Sub(p0).Scale(1 / (t1 - t0)).
		Sub(p2.Sub(p0).Scale(1 / (t2 - t0))).
		Add(p2.Sub(p1).Scale(1 / (t2 - t1))).
		Scale(t2 - t1)
	m2 := p2.Sub(p1).Scale(1 / (t2 - t1)).
		Sub(p3.Sub(p1).Scale(1 / (t3 - t1))).
		Add(p3.Sub(p2).Scale(1 / (t3 - t2))).
		Scale(t2 - t1)

	// Cubic Hermite basis in u.
	u2 := u * u
	u3 := u2 * u
	h00 := 2*u3 - 3*u2 + 1
	h10 := u3 - 2*u2 + u
	h01 := -2*u3 + 3*u2
	h11 := u3 - u2
	p = p1.Scale(h00).Add(m1.Scale(h10)).Add(p2.Scale(h01)).Add(m2.Scale(h11))

	dh00 := 6*u2 - 6*u
	dh10 := 3*u2 - 4*u + 1
	dh01 := -6*u2 + 6*u
	dh11 := 3*u2 - 2*u
	dp = p1.Scale(dh00).Add(m1.Scale(dh10)).Add(p2.Scale(dh01)).Add(m2.Scale(dh11))

	ddh00 := 12*u - 6
	ddh10 := 6*u - 4
	ddh01 := -12*u + 6
	ddh11 := 6*u - 2
	ddp = p1.Scale(ddh00).Add(m1.Scale(ddh10)).Add(p2.Scale(ddh01)).Add(m2.Scale(ddh11))
	return p, dp, ddp
}

// sample densely evaluates the spline into points spaced roughly `spacing`
// apart, with analytic curvature at each sample.
func (s *Spline) sample(spacing float64) ([]Vec2, []float64) {
	nSeg := len(s.ctrl) - 1
	if s.closed {
		nSeg = len(s.ctrl)
	}
	var pts []Vec2
	var kap []float64
	for i := 0; i < nSeg; i++ {
		segLen := s.controlAt(i).Dist(s.controlAt(i + 1))
		steps := int(math.Ceil(segLen/spacing)) + 1
		if steps < 2 {
			steps = 2
		}
		for j := 0; j < steps; j++ {
			if i > 0 && j == 0 {
				continue // shared with previous segment's last sample
			}
			u := float64(j) / float64(steps)
			p, dp, ddp := s.segEval(i, u)
			pts = append(pts, p)
			kap = append(kap, curvatureFromDerivs(dp, ddp))
		}
	}
	if !s.closed {
		p, dp, ddp := s.segEval(nSeg-1, 1)
		pts = append(pts, p)
		kap = append(kap, curvatureFromDerivs(dp, ddp))
	}
	return pts, kap
}

func curvatureFromDerivs(dp, ddp Vec2) float64 {
	den := math.Pow(dp.NormSq(), 1.5)
	if den < 1e-12 {
		return 0
	}
	return dp.Cross(ddp) / den
}

// Length implements Path.
func (s *Spline) Length() float64 { return s.lattice.Length() }

// Closed implements Path.
func (s *Spline) Closed() bool { return s.closed }

// PointAt implements Path.
func (s *Spline) PointAt(arc float64) Vec2 { return s.lattice.PointAt(arc) }

// HeadingAt implements Path.
func (s *Spline) HeadingAt(arc float64) float64 { return s.lattice.HeadingAt(arc) }

// CurvatureAt implements Path, interpolating the analytic curvature
// sampled on the lattice.
func (s *Spline) CurvatureAt(arc float64) float64 {
	w := s.lattice.wrap(arc)
	i, t := s.lattice.segment(w)
	j := (i + 1) % len(s.kappa)
	return s.kappa[i]*(1-t) + s.kappa[j]*t
}

// CurvatureBound implements CurvatureBounder: the largest block bound over
// the lattice segments that CurvatureAt can pick for an arc in [s0, s1].
// segment's index does not decrease as the arc grows, so those are the
// segments from the one of s0 to the one of s1.
func (s *Spline) CurvatureBound(s0, s1 float64) float64 {
	L := s.lattice.Length()
	i0, _ := s.lattice.segment(Clamp(min(s0, s1), 0, L))
	i1, _ := s.lattice.segment(Clamp(max(s0, s1), 0, L))
	k := 0.0
	for _, m := range s.kmax[i0/blockSegs : i1/blockSegs+1] {
		k = max(k, m)
	}
	return k
}

// Project implements Path.
func (s *Spline) Project(q Vec2) (arc, lateral float64) { return s.lattice.Project(q) }

// ControlPoints returns a copy of the spline's control polygon.
func (s *Spline) ControlPoints() []Vec2 {
	out := make([]Vec2, len(s.ctrl))
	copy(out, s.ctrl)
	return out
}

var (
	_ Path             = (*Spline)(nil)
	_ Path             = (*Polyline)(nil)
	_ CurvatureBounder = (*Spline)(nil)
)
