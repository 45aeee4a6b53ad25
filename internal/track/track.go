// Package track provides the reference-route library the experiments drive
// on: parametric test-track geometries (straight, circle, S-curve,
// figure-eight, double-lane-change, urban loop) rendered as smooth
// arc-length-parameterised paths with speed limits. It substitutes for the
// physical test-track routes of the original study.
package track

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"adassure/internal/geom"
)

// Track couples a reference path with a speed limit and a human-readable
// name. Tracks are immutable.
type Track struct {
	name       string
	path       geom.Path
	speedLimit float64
	zones      []SpeedZone
}

// New wraps a path as a track. speedLimit must be positive.
func New(name string, path geom.Path, speedLimit float64) (*Track, error) {
	if name == "" {
		return nil, fmt.Errorf("track: empty name")
	}
	if path == nil {
		return nil, fmt.Errorf("track %q: nil path", name)
	}
	if speedLimit <= 0 {
		return nil, fmt.Errorf("track %q: speed limit must be positive, got %g", name, speedLimit)
	}
	return &Track{name: name, path: path, speedLimit: speedLimit}, nil
}

// Name returns the track's identifier.
func (t *Track) Name() string { return t.name }

// Path returns the reference path.
func (t *Track) Path() geom.Path { return t.path }

// SpeedLimit returns the track-wide speed limit in m/s.
func (t *Track) SpeedLimit() float64 { return t.speedLimit }

// StartPose returns the pose at the beginning of the path, for spawning
// the vehicle aligned with the route.
func (t *Track) StartPose() geom.Pose {
	return geom.Pose{Pos: t.path.PointAt(0), Heading: t.path.HeadingAt(0)}
}

// mustSpline builds a spline or panics; the generators below use verified
// control polygons, so failure is a programming error.
func mustSpline(ctrl []geom.Vec2, closed bool) *geom.Spline {
	sp, err := geom.NewSpline(ctrl, geom.SplineOpts{Spacing: 0.25, Closed: closed})
	if err != nil {
		panic(fmt.Sprintf("track: internal spline construction failed: %v", err))
	}
	return sp
}

// Straight returns a straight route of the given length along +x.
func Straight(length, speedLimit float64) (*Track, error) {
	if length <= 0 {
		return nil, fmt.Errorf("track: straight length must be positive, got %g", length)
	}
	n := int(math.Max(4, math.Ceil(length/20)))
	ctrl := make([]geom.Vec2, n+1)
	for i := range ctrl {
		ctrl[i] = geom.V(length*float64(i)/float64(n), 0)
	}
	return New("straight", mustSpline(ctrl, false), speedLimit)
}

// Circle returns a counter-clockwise circular loop of the given radius.
func Circle(radius, speedLimit float64) (*Track, error) {
	if radius <= 1 {
		return nil, fmt.Errorf("track: circle radius must exceed 1 m, got %g", radius)
	}
	const n = 36
	ctrl := make([]geom.Vec2, n)
	for i := range ctrl {
		a := 2 * math.Pi * float64(i) / n
		ctrl[i] = geom.V(radius*math.Cos(a), radius*math.Sin(a))
	}
	return New("circle", mustSpline(ctrl, true), speedLimit)
}

// SCurve returns an open S-shaped route: straight lead-in, left arc, right
// arc, straight lead-out. amplitude controls the lateral extent.
func SCurve(amplitude, speedLimit float64) (*Track, error) {
	if amplitude <= 0 {
		return nil, fmt.Errorf("track: s-curve amplitude must be positive, got %g", amplitude)
	}
	var ctrl []geom.Vec2
	for x := 0.0; x <= 120; x += 5 {
		y := amplitude * math.Sin(x/120*2*math.Pi)
		ctrl = append(ctrl, geom.V(x, y))
	}
	return New("s-curve", mustSpline(ctrl, false), speedLimit)
}

// FigureEight returns a closed figure-eight (lemniscate of Gerono, scaled),
// which exercises both turn directions and a curvature sign change.
func FigureEight(scale, speedLimit float64) (*Track, error) {
	if scale <= 5 {
		return nil, fmt.Errorf("track: figure-eight scale must exceed 5 m, got %g", scale)
	}
	const n = 48
	ctrl := make([]geom.Vec2, n)
	for i := range ctrl {
		t := 2 * math.Pi * float64(i) / n
		ctrl[i] = geom.V(scale*math.Sin(t), scale*math.Sin(t)*math.Cos(t))
	}
	return New("figure-eight", mustSpline(ctrl, true), speedLimit)
}

// DoubleLaneChange returns the ISO 3888-style double-lane-change manoeuvre:
// straight, offset left by laneOffset, hold, return, straight.
func DoubleLaneChange(laneOffset, speedLimit float64) (*Track, error) {
	if laneOffset <= 0 {
		return nil, fmt.Errorf("track: lane offset must be positive, got %g", laneOffset)
	}
	type seg struct{ x0, x1, y float64 }
	segs := []seg{{0, 30, 0}, {45, 70, laneOffset}, {85, 125, 0}}
	var ctrl []geom.Vec2
	for _, s := range segs {
		for x := s.x0; x <= s.x1; x += 5 {
			ctrl = append(ctrl, geom.V(x, s.y))
		}
	}
	return New("double-lane-change", mustSpline(ctrl, false), speedLimit)
}

// UrbanLoop returns the workhorse scenario: a closed loop with straights,
// 90° corners of differing radii and one tight hairpin, approximating a
// campus shuttle route.
func UrbanLoop(speedLimit float64) (*Track, error) {
	ctrl := []geom.Vec2{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}, {X: 80, Y: 5},
		{X: 90, Y: 20}, {X: 90, Y: 45}, {X: 85, Y: 60}, {X: 70, Y: 68},
		{X: 50, Y: 70}, {X: 30, Y: 70}, {X: 15, Y: 65}, {X: 5, Y: 52},
		{X: 2, Y: 35}, {X: 0, Y: 18},
	}
	return New("urban-loop", mustSpline(ctrl, true), speedLimit)
}

// Hairpin returns an open route with a single 180° hairpin of the given
// radius — the stress case where pure pursuit's corner-cutting weakness
// shows up.
func Hairpin(radius, speedLimit float64) (*Track, error) {
	if radius <= 2 {
		return nil, fmt.Errorf("track: hairpin radius must exceed 2 m, got %g", radius)
	}
	var ctrl []geom.Vec2
	for x := 0.0; x <= 40; x += 5 {
		ctrl = append(ctrl, geom.V(x, 0))
	}
	const n = 12
	for i := 1; i < n; i++ {
		a := math.Pi * float64(i) / n
		ctrl = append(ctrl, geom.V(40+radius*math.Sin(a), radius-radius*math.Cos(a)))
	}
	for x := 40.0; x >= 0; x -= 5 {
		ctrl = append(ctrl, geom.V(x, 2*radius))
	}
	return New("hairpin", mustSpline(ctrl, false), speedLimit)
}

// builtins maps each standard track's name to its path. The paths do not
// depend on the speed limit, so each is built once per process, on first
// use, and shared by every track Builtin and Catalog return: a path is
// immutable after construction (geom.Path), which makes sharing it across
// runs and goroutines exact.
var builtins = map[string]func() (geom.Path, error){
	"straight":           builtinPath(func() (*Track, error) { return Straight(200, DefaultSpeedLimit) }),
	"circle":             builtinPath(func() (*Track, error) { return Circle(25, DefaultSpeedLimit) }),
	"s-curve":            builtinPath(func() (*Track, error) { return SCurve(8, DefaultSpeedLimit) }),
	"figure-eight":       builtinPath(func() (*Track, error) { return FigureEight(30, DefaultSpeedLimit) }),
	"double-lane-change": builtinPath(func() (*Track, error) { return DoubleLaneChange(3.5, DefaultSpeedLimit) }),
	"urban-loop":         builtinPath(func() (*Track, error) { return UrbanLoop(DefaultSpeedLimit) }),
	"hairpin":            builtinPath(func() (*Track, error) { return Hairpin(6, DefaultSpeedLimit) }),
}

// builtinPath memoizes the path of the track build returns.
func builtinPath(build func() (*Track, error)) func() (geom.Path, error) {
	return sync.OnceValues(func() (geom.Path, error) {
		t, err := build()
		if err != nil {
			return nil, err
		}
		return t.Path(), nil
	})
}

// DefaultSpeedLimit is the speed limit in m/s a built-in track is driven
// at when the caller does not choose one.
const DefaultSpeedLimit = 6.0

// BuiltinNames lists the standard track names in sorted order. The list
// is built once and shared: callers must not modify it.
func BuiltinNames() []string { return builtinNames() }

var builtinNames = sync.OnceValue(func() []string { return Names(builtins) })

// ErrUnknownTrack is wrapped by Builtin when no standard track has the
// requested name.
var ErrUnknownTrack = errors.New("unknown track")

// Builtin returns the standard track with the given name and speed limit.
// Its path is built once per process and shared, immutable, by every
// track Builtin and Catalog return for that name.
func Builtin(name string, speedLimit float64) (*Track, error) {
	path, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownTrack, name, BuiltinNames())
	}
	p, err := path()
	if err != nil {
		return nil, err
	}
	return New(name, p, speedLimit)
}

// Catalog returns the named standard tracks used by the experiment
// harness, keyed by name, all with the given speed limit and the shared
// paths Builtin returns.
func Catalog(speedLimit float64) (map[string]*Track, error) {
	out := make(map[string]*Track, len(builtins))
	for _, name := range BuiltinNames() {
		t, err := Builtin(name, speedLimit)
		if err != nil {
			return nil, err
		}
		out[name] = t
	}
	return out, nil
}

// Names returns the sorted keys of a catalog (or of any name-keyed map),
// for stable iteration.
func Names[T any](catalog map[string]T) []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
