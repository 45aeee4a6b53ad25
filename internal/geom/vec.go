// Package geom provides the planar geometry substrate used throughout
// ADAssure: 2-D vectors, poses, angle arithmetic on the circle, polyline
// and spline paths with arc-length parameterisation, curvature estimation
// and point-to-path projection.
//
// All quantities use SI units (metres, radians, seconds) and a right-handed
// coordinate frame with x east, y north, and heading measured
// counter-clockwise from the +x axis.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the plane.
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the 3-D cross product v×w.
// Positive when w is counter-clockwise from v.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// NormSq returns the squared Euclidean length of v.
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Unit returns v normalised to length 1. The zero vector is returned
// unchanged, so callers never divide by zero.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n == 0 {
		return Vec2{}
	}
	return v.Scale(1 / n)
}

// Perp returns v rotated +90° (counter-clockwise).
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Sincos returns math.Sin(a) and math.Cos(a), bit for bit, in one call.
// math.Sincos alone differs in one case: it returns the canonical NaN as
// the sine of a NaN, where math.Sin returns the NaN it was given.
func Sincos(a float64) (sin, cos float64) {
	sin, cos = math.Sincos(a)
	if a != a {
		sin = a
	}
	return sin, cos
}

// Rotate returns v rotated by theta radians counter-clockwise.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{c*v.X - s*v.Y, s*v.X + c*v.Y}
}

// Angle returns the direction of v in radians in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Lerp linearly interpolates from v to w; t=0 gives v, t=1 gives w.
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// IsFinite reports whether both components are finite numbers.
func (v Vec2) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Pose is a planar rigid-body configuration: position plus heading.
type Pose struct {
	Pos     Vec2
	Heading float64 // radians, CCW from +x, normalised to (-π, π]
}

// NewPose constructs a pose with the heading normalised.
func NewPose(x, y, heading float64) Pose {
	return Pose{Pos: Vec2{x, y}, Heading: NormalizeAngle(heading)}
}

// Forward returns the unit vector in the pose's heading direction.
func (p Pose) Forward() Vec2 {
	s, c := math.Sincos(p.Heading)
	return Vec2{c, s}
}

// Left returns the unit vector 90° left of the heading.
func (p Pose) Left() Vec2 { return p.Forward().Perp() }

// TransformTo expresses the world-frame point q in the pose's body frame
// (x forward, y left).
func (p Pose) TransformTo(q Vec2) Vec2 {
	return q.Sub(p.Pos).Rotate(-p.Heading)
}

// TransformFrom expresses the body-frame point q in the world frame.
func (p Pose) TransformFrom(q Vec2) Vec2 {
	return q.Rotate(p.Heading).Add(p.Pos)
}

// String implements fmt.Stringer.
func (p Pose) String() string {
	return fmt.Sprintf("pose{%s, θ=%.3f}", p.Pos, p.Heading)
}

// NormalizeAngle wraps an angle to (-π, π].
func NormalizeAngle(a float64) float64 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return a
	}
	if math.Abs(a) >= 2*math.Pi { // math.Mod is the identity inside
		a = math.Mod(a, 2*math.Pi)
	}
	switch {
	case a <= -math.Pi:
		a += 2 * math.Pi
	case a > math.Pi:
		a -= 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest rotation taking b to a,
// i.e. normalize(a-b), in (-π, π].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(a - b) }

// AngleLerp interpolates between two angles along the shortest arc.
func AngleLerp(a, b, t float64) float64 {
	return NormalizeAngle(a + AngleDiff(b, a)*t)
}

// Clamp limits x to [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("geom: Clamp bounds inverted: lo=%g hi=%g", lo, hi))
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	}
	return x
}

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// ToDeg converts radians to degrees.
func ToDeg(r float64) float64 { return r * 180 / math.Pi }
