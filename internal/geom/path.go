package geom

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Path is an arc-length parameterised planar curve. Implementations must be
// immutable after construction so they can be shared across goroutines.
type Path interface {
	// Length returns the total arc length of the path in metres.
	Length() float64
	// PointAt returns the point at arc length s, clamped to [0, Length].
	PointAt(s float64) Vec2
	// HeadingAt returns the tangent direction at arc length s.
	HeadingAt(s float64) float64
	// CurvatureAt returns the signed curvature κ at arc length s
	// (positive = turning left).
	CurvatureAt(s float64) float64
	// Project returns the arc length of the point on the path closest to q,
	// and the signed lateral offset of q from the path (positive = left of
	// the tangent).
	Project(q Vec2) (s, lateral float64)
	// RangeProjector is Project restricted to an arc window.
	RangeProjector
	// Closed reports whether the path is a loop (end joins start).
	Closed() bool
}

// Polyline is a piecewise-linear Path through a sequence of vertices.
// Curvature is estimated from the turn angle at interior vertices, smeared
// over the neighbouring half-segments.
type Polyline struct {
	pts    []Vec2
	cum    []float64 // cumulative arc length at each vertex
	closed bool
	boxes  []box // one padded bounding box per blockSegs segments (see closest)
	supers []box // the union of each superBlocks consecutive boxes
	// hint[b] is the segment holding arc b·Length/nSeg, where nSeg =
	// len(cum)-1; hintScale is nSeg/Length. They give segment an O(1)
	// starting guess (see segment).
	hint      []int32
	hintScale float64
}

// ErrDegeneratePath is returned when a path cannot be constructed from the
// given vertices (fewer than two distinct points, or non-finite input).
var ErrDegeneratePath = errors.New("geom: degenerate path")

// NewPolyline builds an open polyline through pts. Consecutive duplicate
// points are removed. At least two distinct points are required.
func NewPolyline(pts []Vec2) (*Polyline, error) { return newPolyline(pts, false) }

// NewClosedPolyline builds a closed polyline (loop). The closing segment
// from the last point back to the first is implicit; the caller should not
// repeat the first point.
func NewClosedPolyline(pts []Vec2) (*Polyline, error) { return newPolyline(pts, true) }

func newPolyline(pts []Vec2, closed bool) (*Polyline, error) {
	clean := make([]Vec2, 0, len(pts))
	for _, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("%w: non-finite vertex %v", ErrDegeneratePath, p)
		}
		if len(clean) > 0 && clean[len(clean)-1].Dist(p) < 1e-12 {
			continue
		}
		clean = append(clean, p)
	}
	if closed && len(clean) > 1 && clean[0].Dist(clean[len(clean)-1]) < 1e-12 {
		clean = clean[:len(clean)-1]
	}
	if len(clean) < 2 || (closed && len(clean) < 3) {
		return nil, fmt.Errorf("%w: need at least %d distinct points, got %d",
			ErrDegeneratePath, map[bool]int{false: 2, true: 3}[closed], len(clean))
	}
	n := len(clean)
	segs := n - 1
	if closed {
		segs = n
	}
	cum := make([]float64, segs+1)
	for i := 0; i < segs; i++ {
		a := clean[i]
		b := clean[(i+1)%n]
		cum[i+1] = cum[i] + a.Dist(b)
	}
	hint, hintScale := segmentHints(cum)
	boxes, supers := blockBoxes(clean, segs)
	return &Polyline{pts: clean, cum: cum, closed: closed, boxes: boxes, supers: supers,
		hint: hint, hintScale: hintScale}, nil
}

// segmentHints returns one hint per segment of the cumulative arc table
// cum: the segment holding arc b·L/nSeg for bucket b, and the scale
// nSeg/L that maps an arc length to its bucket.
func segmentHints(cum []float64) ([]int32, float64) {
	nSeg := len(cum) - 1
	L := cum[nSeg]
	hint := make([]int32, nSeg)
	i := 0
	for b := range hint {
		a := float64(b) * L / float64(nSeg)
		for i < nSeg-1 && cum[i+1] <= a {
			i++
		}
		hint[b] = int32(i)
	}
	return hint, float64(nSeg) / L
}

// Points returns a copy of the polyline's vertices.
func (p *Polyline) Points() []Vec2 {
	out := make([]Vec2, len(p.pts))
	copy(out, p.pts)
	return out
}

// Length implements Path.
func (p *Polyline) Length() float64 { return p.cum[len(p.cum)-1] }

// Closed implements Path.
func (p *Polyline) Closed() bool { return p.closed }

// wrap clamps (open) or wraps (closed) an arc length into [0, Length).
// On a closed path, s in [0, L) is already wrapped and s in [L, 2L) wraps
// to s−L, which is exact there (Sterbenz) and so equals math.Mod's exact
// remainder; preview samples past the seam land in that range.
func (p *Polyline) wrap(s float64) float64 {
	L := p.Length()
	if p.closed {
		if 0 <= s && s < L {
			return s
		}
		if L <= s && s < 2*L {
			return s - L
		}
		s = math.Mod(s, L)
		if s < 0 {
			s += L
		}
		return s
	}
	return Clamp(s, 0, L)
}

// hintAt returns the hint for an arc length s in [0, Length]: a segment
// near the one holding s.
func (p *Polyline) hintAt(s float64) int {
	b := len(p.hint) - 1
	if f := s * p.hintScale; f < float64(b) {
		b = int(f)
	}
	return int(p.hint[b])
}

// segment locates the segment index containing arc length s and the offset
// into it. s must already be wrapped. The index is the largest i ≤ len−2
// with cum[i] < s, else 0, even where cum repeats a value.
func (p *Polyline) segment(s float64) (idx int, t float64) {
	last := len(p.cum) - 2
	if 0 <= s && s <= p.cum[last+1] {
		// Start at the hint for s's bucket, step back until cum[idx] < s
		// (or idx is 0), then forward while the next vertex is still below
		// s. cum is sorted, so the walk ends at the same index wherever it
		// starts: the hint's rounding costs steps, never the result.
		idx = p.hintAt(s)
		for idx > 0 && p.cum[idx] >= s {
			idx--
		}
		for idx < last && p.cum[idx+1] < s {
			idx++
		}
	} else {
		// Non-finite or out-of-range s: cum is sorted; find first
		// cum[i+1] >= s.
		idx = sort.SearchFloat64s(p.cum, s)
		if idx > 0 {
			idx--
		}
		if idx > last {
			idx = last
		}
	}
	segLen := p.cum[idx+1] - p.cum[idx]
	if segLen <= 0 {
		return idx, 0
	}
	return idx, (s - p.cum[idx]) / segLen
}

func (p *Polyline) segStart(i int) Vec2 { return p.pts[i] }

// segEnd returns the end of segment i; the closing segment of a closed
// polyline ends at pts[0].
func (p *Polyline) segEnd(i int) Vec2 {
	if i+1 == len(p.pts) {
		return p.pts[0]
	}
	return p.pts[i+1]
}

// PointAt implements Path.
func (p *Polyline) PointAt(s float64) Vec2 {
	i, t := p.segment(p.wrap(s))
	return p.segStart(i).Lerp(p.segEnd(i), t)
}

// HeadingAt implements Path.
func (p *Polyline) HeadingAt(s float64) float64 {
	i, _ := p.segment(p.wrap(s))
	return p.segEnd(i).Sub(p.segStart(i)).Angle()
}

// CurvatureAt implements Path. The curvature at an interior vertex with
// turn angle Δθ between segments of lengths l1 and l2 is approximated as
// Δθ/((l1+l2)/2), attributed to the half-segments adjacent to the vertex.
func (p *Polyline) CurvatureAt(s float64) float64 {
	s = p.wrap(s)
	i, t := p.segment(s)
	nSeg := len(p.cum) - 1
	// Choose the vertex nearer to s along the current segment.
	var vtx int // vertex index whose turn we sample
	if t < 0.5 {
		vtx = i
	} else {
		vtx = i + 1
	}
	if !p.closed {
		if vtx <= 0 || vtx >= nSeg {
			return 0 // endpoints of an open path have no defined turn
		}
	}
	vtx = vtx % nSeg
	prev := (vtx - 1 + nSeg) % nSeg
	if !p.closed && vtx == 0 {
		return 0
	}
	a := p.segEnd(prev).Sub(p.segStart(prev))
	b := p.segEnd(vtx).Sub(p.segStart(vtx))
	dTheta := AngleDiff(b.Angle(), a.Angle())
	span := (a.Norm() + b.Norm()) / 2
	if span <= 0 {
		return 0
	}
	return dTheta / span
}

// Resample returns a new polyline with vertices spaced ds apart along the
// arc (the final vertex lands exactly on the path end for open paths).
func (p *Polyline) Resample(ds float64) (*Polyline, error) {
	if ds <= 0 {
		return nil, fmt.Errorf("geom: Resample spacing must be positive, got %g", ds)
	}
	L := p.Length()
	n := int(math.Ceil(L/ds)) + 1
	pts := make([]Vec2, 0, n)
	for i := 0; i < n; i++ {
		s := float64(i) * ds
		if s > L {
			s = L
		}
		pts = append(pts, p.PointAt(s))
	}
	if p.closed {
		return NewClosedPolyline(pts)
	}
	if pts[len(pts)-1].Dist(p.PointAt(L)) > 1e-9 {
		pts = append(pts, p.PointAt(L))
	}
	return NewPolyline(pts)
}
