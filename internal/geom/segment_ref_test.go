package geom

import (
	"math"
	"sort"
)

// The reference arc-length lookup: math.Mod wrapping and a binary search
// over cum, as Polyline used before its fast paths. The Ref* methods
// evaluate PointAt, HeadingAt and CurvatureAt through it; the
// differential tests require the same bits from the fast paths.

func (p *Polyline) refWrap(s float64) float64 {
	L := p.Length()
	if p.closed {
		s = math.Mod(s, L)
		if s < 0 {
			s += L
		}
		return s
	}
	return Clamp(s, 0, L)
}

func (p *Polyline) refSegment(s float64) (idx int, t float64) {
	idx = sort.SearchFloat64s(p.cum, s)
	if idx > 0 {
		idx--
	}
	if idx >= len(p.cum)-1 {
		idx = len(p.cum) - 2
	}
	segLen := p.cum[idx+1] - p.cum[idx]
	if segLen <= 0 {
		return idx, 0
	}
	return idx, (s - p.cum[idx]) / segLen
}

// Cum returns the polyline's cumulative arc-length table.
func (p *Polyline) Cum() []float64 { return p.cum }

// RefPointAt is PointAt through the reference lookup.
func (p *Polyline) RefPointAt(s float64) Vec2 {
	i, t := p.refSegment(p.refWrap(s))
	return p.segStart(i).Lerp(p.segEnd(i), t)
}

// RefHeadingAt is HeadingAt through the reference lookup.
func (p *Polyline) RefHeadingAt(s float64) float64 {
	i, _ := p.refSegment(p.refWrap(s))
	return p.segEnd(i).Sub(p.segStart(i)).Angle()
}

// RefCurvatureAt is CurvatureAt through the reference lookup.
func (p *Polyline) RefCurvatureAt(s float64) float64 {
	s = p.refWrap(s)
	i, t := p.refSegment(s)
	nSeg := len(p.cum) - 1
	var vtx int
	if t < 0.5 {
		vtx = i
	} else {
		vtx = i + 1
	}
	if !p.closed {
		if vtx <= 0 || vtx >= nSeg {
			return 0
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

// RefCurvatureAt is the spline's CurvatureAt through the reference lookup.
func (s *Spline) RefCurvatureAt(arc float64) float64 {
	w := s.lattice.refWrap(arc)
	i, t := s.lattice.refSegment(w)
	j := (i + 1) % len(s.kappa)
	return s.kappa[i]*(1-t) + s.kappa[j]*t
}
