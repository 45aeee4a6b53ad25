// Package planner supplies the reference inputs the controllers track:
// a curvature-limited target-speed profile with braking preview and
// accel/jerk shaping, and a route-progress tracker that handles closed-loop
// lap wrapping and open-route completion.
package planner

import (
	"fmt"
	"math"

	"adassure/internal/geom"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// SpeedProfile computes the target speed at any arc position of a path,
// respecting the track speed limit, the lateral-acceleration envelope on
// curvature, and a braking preview so the vehicle slows before corners
// rather than in them.
type SpeedProfile struct {
	path     geom.Path
	limitAt  func(s float64) float64
	maxLat   float64
	maxBrake float64
	bounds   previewBounds
}

// The braking preview samples the curvature bound every previewStep metres
// up to preview metres ahead.
const (
	preview     = 40.0 // lookahead distance for corner braking, m
	previewStep = 0.5
)

// NewSpeedProfile builds a profile for a path under the vehicle's limits.
func NewSpeedProfile(path geom.Path, speedLimit float64, p vehicle.Params) (*SpeedProfile, error) {
	if err := checkProfile(path, speedLimit, p); err != nil {
		return nil, err
	}
	cap := math.Min(speedLimit, p.MaxSpeed)
	return newSpeedProfile(path, func(float64) float64 { return cap }, cap, p), nil
}

// NewSpeedProfileForTrack builds a profile that additionally honours the
// track's speed zones (depot areas, crossings) via Track.LimitAt.
func NewSpeedProfileForTrack(tr *track.Track, p vehicle.Params) (*SpeedProfile, error) {
	if tr == nil {
		return nil, fmt.Errorf("planner: nil track")
	}
	if err := checkProfile(tr.Path(), tr.SpeedLimit(), p); err != nil {
		return nil, err
	}
	// LimitAt returns the base limit or a zone limit below it.
	lowest := tr.SpeedLimit()
	for _, z := range tr.Zones() {
		if z.Limit < lowest {
			lowest = z.Limit
		}
	}
	limitAt := func(s float64) float64 { return math.Min(tr.LimitAt(s), p.MaxSpeed) }
	return newSpeedProfile(tr.Path(), limitAt, math.Min(lowest, p.MaxSpeed), p), nil
}

func checkProfile(path geom.Path, speedLimit float64, p vehicle.Params) error {
	if path == nil {
		return fmt.Errorf("planner: nil path")
	}
	if speedLimit <= 0 {
		return fmt.Errorf("planner: speed limit must be positive, got %g", speedLimit)
	}
	return p.Validate()
}

// newSpeedProfile builds a profile whose limitAt never returns less than
// lowest.
func newSpeedProfile(path geom.Path, limitAt func(float64) float64, lowest float64, p vehicle.Params) *SpeedProfile {
	sp := &SpeedProfile{
		path:     path,
		limitAt:  limitAt,
		maxLat:   p.MaxLatAccel,
		maxBrake: p.MaxBrake * 0.7, // comfort braking, not emergency
	}
	if cb, ok := path.(geom.CurvatureBounder); ok {
		sp.bounds = sp.newPreviewBounds(cb, lowest)
	}
	return sp
}

// latMargin derates the lateral-acceleration budget in the speed plan so
// that realistic speed-tracking overshoot into a corner stays inside the
// vehicle's actual envelope.
const latMargin = 0.85

// curveSpeed returns the curvature- and zone-limited speed at arc
// position s.
func (sp *SpeedProfile) curveSpeed(s float64) float64 {
	limit := sp.limitAt(s)
	k := math.Abs(sp.path.CurvatureAt(s))
	if k < 1e-6 {
		return limit
	}
	return math.Min(limit, math.Sqrt(sp.maxLat*latMargin/k))
}

// bucketLen is the arc length of one preview-bound bucket. It is a power
// of two, so an arc's bucket index int(w/bucketLen) is exact.
const bucketLen = 2.0

// minBounded keeps the squares the bound tests compare normal: lower
// bounds below it count as 0, targets below it run the full preview, and
// so do profiles whose lowest limit or braking rate is outside
// [minBounded, 1/minBounded].
const minBounded = 0x1p-500

// previewBounds holds lower bounds on curveSpeed, squared, per bucketLen
// of wrapped arc, which let TargetAt skip preview samples (DESIGN.md §13).
// A zero value (nil lb2) bounds nothing.
type previewBounds struct {
	lb2 []float64 // lb2[k] ≤ curveSpeed² over bucket k, unless curveSpeed is NaN
	win []float64 // win[k]: the least lb2 a preview from bucket k can reach
	// sLo ≤ s < sHi is where TargetAt uses the bounds: every preview
	// sample of such an s wraps the way bucket computes.
	sLo, sHi float64
	L        float64
	closed   bool
}

// newPreviewBounds builds the bucket bounds for a path whose curvature cb
// bounds and whose limitAt never returns less than lowest.
func (sp *SpeedProfile) newPreviewBounds(cb geom.CurvatureBounder, lowest float64) previewBounds {
	L := sp.path.Length()
	if !(lowest >= minBounded && lowest <= 1/minBounded &&
		sp.maxBrake >= minBounded && sp.maxBrake <= 1/minBounded && L/bucketLen < math.MaxInt32) {
		return previewBounds{}
	}
	b := previewBounds{sLo: math.Inf(-1), sHi: math.Inf(1), L: L, closed: sp.path.Closed()}
	if b.closed {
		// s + preview must stay below 2L, where the path wraps by one
		// subtraction; the extra metre absorbs the rounding of s + d.
		b.sLo, b.sHi = 0, 2*L-preview-1
	}
	n := int(L/bucketLen) + 1
	all := make([]float64, 2*n)
	b.lb2, b.win = all[:n:n], all[n:]
	for k := range b.lb2 {
		w0 := float64(k) * bucketLen
		K := cb.CurvatureBound(w0, math.Min(w0+bucketLen, L))
		// curveSpeed's k < 1e-6 branch returns the limit, which is at
		// least lowest; otherwise |κ| ≤ K and the same operations on K
		// give no more than it does.
		lb := math.Min(lowest, math.Sqrt(sp.maxLat*latMargin/K))
		if !(lb >= minBounded) {
			lb = 0
		}
		b.lb2[k] = lb * lb
	}
	for k := range b.win {
		// The farthest unwrapped arc a preview from bucket k reaches, with
		// a metre for rounding; on a loop the rest wraps to the start.
		reach := float64(k)*bucketLen + bucketLen + preview + 1
		m := math.Inf(1)
		for j := k; j < n && float64(j)*bucketLen <= reach; j++ {
			m = min(m, b.lb2[j])
		}
		for j := 0; b.closed && j < n && float64(j)*bucketLen <= reach-L; j++ {
			m = min(m, b.lb2[j])
		}
		b.win[k] = m
	}
	return b
}

// bucket returns the bucket of arc x the way the path wraps it for
// CurvatureAt: on a loop x is in [0, 2L) and wraps by one subtraction, on
// an open path it clamps to [0, L].
func (b *previewBounds) bucket(x float64) int {
	if b.closed {
		if x >= b.L {
			x -= b.L
		}
	} else {
		x = max(0, min(x, b.L))
	}
	return int(x * (1 / bucketLen))
}

// TargetAt returns the target speed at arc position s, including the
// braking preview: the speed is lowered so that any upcoming curvature
// bound within the preview window is reachable under comfort braking.
//
// The loop stops at the braking horizon, the first d with
// √(2·maxBrake·d) ≥ v, because no later sample can lower v. Let
// c = 2·maxBrake·d, rounded as in reachable. d += previewStep is exact, so
// c does not decrease as d grows. ahead² ≥ 0 and rounding is monotone, so
// fl(ahead² + c) ≥ c; Sqrt is correctly rounded and monotone, so every
// later reachable is ≥ √c ≥ v, or NaN, and neither passes reachable < v.
// A NaN v never passes the horizon test, so it runs the whole window.
//
// Where the path bounds its curvature, a sample is skipped when its
// bucket's lower bound lb gives lb² + c ≥ v²·(1+2^-20), and the whole
// loop when the least bound the preview can reach does so at the smallest
// c: with ahead ≥ lb, that margin outweighs every rounding of ahead² + c
// however it is fused, so reachable ≥ v (DESIGN.md §13).
func (sp *SpeedProfile) TargetAt(s float64) float64 {
	v := sp.curveSpeed(s)
	b := &sp.bounds
	bounded := b.lb2 != nil && s >= b.sLo && s < b.sHi && v >= minBounded
	var v2 float64
	if bounded {
		v2 = v * v * (1 + 0x1p-20)
		if b.win[b.bucket(s)]+2*sp.maxBrake*previewStep >= v2 {
			return v
		}
	}
	for d := previewStep; d <= preview; d += previewStep {
		if math.Sqrt(2*sp.maxBrake*d) >= v {
			break
		}
		if bounded && b.lb2[b.bucket(s+d)]+2*sp.maxBrake*d >= v2 {
			continue
		}
		ahead := sp.curveSpeed(s + d)
		// v² = v_ahead² + 2·a·d  (braking backward from the constraint)
		reachable := math.Sqrt(ahead*ahead + 2*sp.maxBrake*d)
		if reachable < v {
			v = reachable
			v2 = v * v * (1 + 0x1p-20)
		}
	}
	return v
}

// Follower keeps a continuous arc position on a path across control steps
// by projecting into a bounded window around the previous position. On
// self-intersecting routes (figure-eight) the globally nearest point can
// belong to the other branch; the windowed projection sticks to the branch
// being driven. A result farther than followMaxLat from the path, or at or
// past an edge of the window, falls back to a global projection (the
// vehicle — or its spoofed or replayed estimate — genuinely jumped).
type Follower struct {
	path  geom.Path
	lastS float64
	init  bool
}

// The follower's window geometry in metres: the search window reaches
// followBack behind and followAhead ahead of the last position, and a
// lateral offset beyond followMaxLat re-acquires globally.
const followBack, followAhead, followMaxLat = 15, 25, 8

// NewFollower builds a follower with standard window geometry.
func NewFollower(path geom.Path) (*Follower, error) {
	if path == nil {
		return nil, fmt.Errorf("planner: nil path")
	}
	return &Follower{path: path}, nil
}

// Project returns the continuous arc position and lateral offset of q.
func (f *Follower) Project(q geom.Vec2) (s, lateral float64) {
	if !f.init {
		s, lateral = f.path.Project(q)
		f.lastS, f.init = s, true
		return s, lateral
	}
	s, lateral = f.path.ProjectRange(q, f.lastS-followBack, f.lastS+followAhead)
	if math.Abs(lateral) > followMaxLat || f.atEdge(s) {
		// Teleport (attack or recovery): re-acquire globally.
		s, lateral = f.path.Project(q)
	}
	f.lastS = s
	return s, lateral
}

// atEdge reports whether a windowed answer s lies at or past an edge of
// the window around lastS, where the window's nearest point stands in for
// a nearer one outside it. On a closed path the offset is taken the short
// way round the seam.
func (f *Follower) atEdge(s float64) bool {
	d := s - f.lastS
	if f.path.Closed() {
		if L := f.path.Length(); d > L/2 {
			d -= L
		} else if d < -L/2 {
			d += L
		}
	}
	return d <= -followBack || d >= followAhead
}

// Progress tracks how far along a route the vehicle has travelled,
// monotonically, across lap wraps on closed paths. It converts raw
// projections (which jump back to ~0 at each wrap) into cumulative
// distance, and detects completion of open routes.
type Progress struct {
	path     geom.Path
	lastS    float64
	total    float64
	laps     int
	started  bool
	finished bool
	// finishMargin is how close to the end of an open path counts as done.
	finishMargin float64
}

// NewProgress starts tracking progress along a path.
func NewProgress(path geom.Path) (*Progress, error) {
	if path == nil {
		return nil, fmt.Errorf("planner: nil path")
	}
	return &Progress{path: path, finishMargin: 2.0}, nil
}

// Observe folds a new projected arc position into the cumulative progress
// and returns the updated total distance. Small backward moves (projection
// jitter) reduce progress accordingly; a jump of more than half the path
// length on a closed path is interpreted as a lap wrap.
func (pr *Progress) Observe(s float64) float64 {
	if !pr.started {
		pr.lastS = s
		pr.started = true
		return pr.total
	}
	L := pr.path.Length()
	ds := s - pr.lastS
	if pr.path.Closed() {
		// Wrap: choose the representation of ds with the smallest magnitude.
		if ds > L/2 {
			ds -= L
		} else if ds < -L/2 {
			ds += L
			pr.laps++
		}
	}
	pr.total += ds
	pr.lastS = s
	if !pr.path.Closed() && s >= L-pr.finishMargin {
		pr.finished = true
	}
	return pr.total
}

// Total returns cumulative signed progress in metres.
func (pr *Progress) Total() float64 { return pr.total }

// Laps returns the number of completed laps (closed paths only).
func (pr *Progress) Laps() int { return pr.laps }

// Finished reports whether an open route has been completed.
func (pr *Progress) Finished() bool { return pr.finished }
