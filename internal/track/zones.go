package track

import (
	"fmt"
	"math"
	"sort"

	"adassure/internal/geom"
)

// SpeedZone restricts the speed over an arc-length range of a track —
// depot areas, crossings, school zones. Zones are half-open [Start, End).
type SpeedZone struct {
	Start, End float64 // arc positions, m
	Limit      float64 // m/s
}

// Validate checks the zone.
func (z SpeedZone) Validate(pathLen float64) error {
	if z.Limit <= 0 {
		return fmt.Errorf("track: zone limit must be positive, got %g", z.Limit)
	}
	if z.Start < 0 || z.End <= z.Start || z.Start >= pathLen {
		return fmt.Errorf("track: invalid zone [%g, %g) on a %g m path", z.Start, z.End, pathLen)
	}
	return nil
}

// WithZones returns a copy of the track carrying speed zones. Zones may
// not overlap. The base speed limit applies outside every zone.
func (t *Track) WithZones(zones ...SpeedZone) (*Track, error) {
	sorted := make([]SpeedZone, len(zones))
	copy(sorted, zones)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, z := range sorted {
		if err := z.Validate(t.path.Length()); err != nil {
			return nil, err
		}
		if i > 0 && sorted[i-1].End > z.Start {
			return nil, fmt.Errorf("track: zones [%g,%g) and [%g,%g) overlap",
				sorted[i-1].Start, sorted[i-1].End, z.Start, z.End)
		}
	}
	out := *t
	out.zones = sorted
	return &out, nil
}

// Zones returns the track's speed zones (possibly empty).
func (t *Track) Zones() []SpeedZone {
	out := make([]SpeedZone, len(t.zones))
	copy(out, t.zones)
	return out
}

// LimitAt returns the speed limit applicable at arc position s, accounting
// for zones. On closed tracks s is wrapped into [0, Length): one add or
// subtract on [−L, 2L), math.Mod beyond it. A non-finite s (±Inf wraps to
// NaN) is in no zone and gets the base limit.
func (t *Track) LimitAt(s float64) float64 {
	if t.path.Closed() {
		L := t.path.Length()
		if s < -L || s >= 2*L {
			s = math.Mod(s, L)
		}
		if s < 0 {
			s += L
		}
		if s >= L {
			s -= L
		}
	}
	for _, z := range t.zones {
		if s >= z.Start && s < z.End {
			if z.Limit < t.speedLimit {
				return z.Limit
			}
			return t.speedLimit
		}
	}
	return t.speedLimit
}

// FromWaypoints builds a custom route track through the given waypoints —
// the deployment-route entry point for downstream users. The waypoints are
// splined; closed loops must not repeat the first point.
func FromWaypoints(name string, waypoints []geom.Vec2, closed bool, speedLimit float64) (*Track, error) {
	sp, err := geom.NewSpline(waypoints, geom.SplineOpts{Spacing: 0.25, Closed: closed})
	if err != nil {
		return nil, fmt.Errorf("track %q: %w", name, err)
	}
	return New(name, sp, speedLimit)
}
