package planner

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adassure/internal/geom"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// refTargetAt is TargetAt without the braking-horizon exit: every preview
// sample is evaluated. TargetAt must return the same bits.
func (sp *SpeedProfile) refTargetAt(s float64) float64 {
	v := sp.curveSpeed(s)
	for d := 0.5; d <= 40; d += 0.5 {
		ahead := sp.curveSpeed(s + d)
		reachable := math.Sqrt(ahead*ahead + 2*sp.maxBrake*d)
		if reachable < v {
			v = reachable
		}
	}
	return v
}

// diffProfile is one speed profile under test and its name.
type diffProfile struct {
	name string
	sp   *SpeedProfile
	L    float64
}

// plainPath hides every method of a path but those of geom.Path, as a
// timing wrapper does: a profile on it has no preview bounds.
type plainPath struct{ geom.Path }

// diffProfiles returns a profile per built-in track for the shuttle and
// the sedan, at the default and at a high speed limit, plus zoned
// urban-loop profiles (closed), a zoned straight (open), custom
// waypoint routes (open and closed, with one zone below and one above the
// base limit) and the urban loop behind a path without the bound.
var diffProfiles = sync.OnceValues(func() ([]diffProfile, error) {
	var out []diffProfile
	add := func(name string, tr *track.Track, p vehicle.Params) error {
		sp, err := NewSpeedProfileForTrack(tr, p)
		if err != nil {
			return err
		}
		out = append(out, diffProfile{name, sp, tr.Path().Length()})
		return nil
	}
	vehicles := map[string]vehicle.Params{"shuttle": vehicle.ShuttleParams(), "sedan": vehicle.SedanParams()}
	for _, limit := range []float64{track.DefaultSpeedLimit, 30} {
		cat, err := track.Catalog(limit)
		if err != nil {
			return nil, err
		}
		for _, name := range track.Names(cat) {
			for _, vn := range []string{"shuttle", "sedan"} {
				if err := add(fmt.Sprintf("%s/%s/%g", name, vn, limit), cat[name], vehicles[vn]); err != nil {
					return nil, err
				}
			}
		}
	}
	loop, err := track.UrbanLoop(track.DefaultSpeedLimit)
	if err != nil {
		return nil, err
	}
	L := loop.Path().Length()
	zoned, err := loop.WithZones(
		track.SpeedZone{Start: 0, End: 12, Limit: 2},
		track.SpeedZone{Start: L / 2, End: L/2 + 30, Limit: 1.5},
		track.SpeedZone{Start: L - 9, End: L + 20, Limit: 3})
	if err != nil {
		return nil, err
	}
	straight, err := track.Straight(300, 8)
	if err != nil {
		return nil, err
	}
	zonedStraight, err := straight.WithZones(track.SpeedZone{Start: 100, End: 150, Limit: 2})
	if err != nil {
		return nil, err
	}
	custom := map[bool][]geom.Vec2{
		false: {{X: 0, Y: 0}, {X: 25, Y: 4}, {X: 40, Y: -6}, {X: 52, Y: 10}, {X: 80, Y: 12}, {X: 95, Y: 40}},
		true:  {{X: 0, Y: 0}, {X: 45, Y: -5}, {X: 60, Y: 20}, {X: 40, Y: 44}, {X: 10, Y: 38}, {X: -8, Y: 18}},
	}
	var customs []*track.Track
	for _, closed := range []bool{false, true} {
		tr, err := track.FromWaypoints(fmt.Sprintf("custom-closed=%v", closed), custom[closed], closed, 7)
		if err != nil {
			return nil, err
		}
		cL := tr.Path().Length()
		tr, err = tr.WithZones(
			track.SpeedZone{Start: cL / 4, End: cL/4 + 15, Limit: 2.5},
			track.SpeedZone{Start: cL / 2, End: cL/2 + 20, Limit: 12})
		if err != nil {
			return nil, err
		}
		customs = append(customs, tr)
	}
	plain, err := track.New("plain-urban-loop", plainPath{loop.Path()}, track.DefaultSpeedLimit)
	if err != nil {
		return nil, err
	}
	for _, vn := range []string{"shuttle", "sedan"} {
		if err := add("zoned-urban-loop/"+vn, zoned, vehicles[vn]); err != nil {
			return nil, err
		}
		if err := add("zoned-straight/"+vn, zonedStraight, vehicles[vn]); err != nil {
			return nil, err
		}
	}
	for _, vn := range []string{"shuttle", "sedan"} {
		for _, tr := range customs {
			if err := add(tr.Name()+"/"+vn, tr, vehicles[vn]); err != nil {
				return nil, err
			}
		}
		if err := add("plain-urban-loop/"+vn, plain, vehicles[vn]); err != nil {
			return nil, err
		}
	}
	return out, nil
})

func checkTarget(t testing.TB, p diffProfile, s float64) {
	t.Helper()
	if g, w := p.sp.TargetAt(s), p.sp.refTargetAt(s); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: TargetAt(%v) = %v, full preview gives %v", p.name, s, g, w)
	}
}

// TestTargetAtMatchesFullPreview checks the braking-horizon exit and the
// bound skips bitwise on a 0.125 m grid over [−L, 2L], at the special
// values and at random arcs in [−2L, 3L]. The geom differential tests
// cover the lattice vertices themselves.
func TestTargetAtMatchesFullPreview(t *testing.T) {
	profiles, err := diffProfiles()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range profiles {
		for s := -p.L; s <= 2*p.L; s += 0.125 {
			checkTarget(t, p, s)
		}
		for _, s := range []float64{
			0, math.Copysign(0, -1), p.L, 2 * p.L, math.Nextafter(p.L, 0), math.Nextafter(2*p.L, 0),
			-p.L - 1, 2*p.L - preview - 1, math.Nextafter(2*p.L-preview-1, 0),
			math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300,
		} {
			checkTarget(t, p, s)
		}
		for k := 0; k < 2000; k++ {
			checkTarget(t, p, (rng.Float64()*5-2)*p.L)
		}
	}
}

// TestTargetAtNonFiniteReturns: a zoned closed track's TargetAt must
// return for infinite and huge arcs (Track.LimitAt used to loop forever).
func TestTargetAtNonFiniteReturns(t *testing.T) {
	profiles, err := diffProfiles()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, p := range profiles {
			for _, s := range []float64{math.Inf(1), math.Inf(-1), 1e300, -1e300, math.NaN()} {
				p.sp.TargetAt(s)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("TargetAt did not return for a non-finite or huge arc")
	}
}

// TestPreviewBoundsHold checks the bucket bounds the skips rest on: every
// profile on a spline has them (the plain path has none), and lb2 never
// exceeds curveSpeed² of an arc the bucket holds, on a 1/64 m grid over
// the wrapped arcs [0, L].
func TestPreviewBoundsHold(t *testing.T) {
	profiles, err := diffProfiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		b := &p.sp.bounds
		if _, plain := p.sp.path.(plainPath); plain != (b.lb2 == nil) {
			t.Fatalf("%s: has bounds = %v on a %T", p.name, b.lb2 != nil, p.sp.path)
		}
		if b.lb2 == nil {
			continue
		}
		skips := 0
		for w := 0.0; w <= p.L; w += 1.0 / 64 {
			k := b.bucket(w)
			if v := p.sp.curveSpeed(w); v*v < b.lb2[k] {
				t.Fatalf("%s: curveSpeed(%v) = %v, below bucket %d's bound %v", p.name, w, v, k, math.Sqrt(b.lb2[k]))
			}
			if b.win[k] > b.lb2[k] {
				t.Fatalf("%s: bucket %d's window bound %v exceeds its own %v", p.name, k, b.win[k], b.lb2[k])
			}
			if b.lb2[k] > 0 {
				skips++
			}
		}
		if skips == 0 {
			t.Errorf("%s: every bucket bound is 0, so nothing is skipped", p.name)
		}
	}
}

func TestTargetAtDoesNotAllocate(t *testing.T) {
	profiles, err := diffProfiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if n := testing.AllocsPerRun(50, func() { p.sp.TargetAt(p.L - 3) }); n != 0 {
			t.Errorf("%s: TargetAt allocates %v times per call", p.name, n)
		}
	}
}

// FuzzSpeedProfileDifferential checks TargetAt against the full preview
// for any arc on any profile of diffProfiles.
func FuzzSpeedProfileDifferential(f *testing.F) {
	f.Add(uint16(0), 10.0)
	f.Add(uint16(3), -7.25)
	f.Add(uint16(28), 1e300)
	f.Add(uint16(29), math.Inf(1))
	f.Add(uint16(30), 149.75)
	f.Fuzz(func(t *testing.T, idx uint16, s float64) {
		profiles, err := diffProfiles()
		if err != nil {
			t.Fatal(err)
		}
		checkTarget(t, profiles[int(idx)%len(profiles)], s)
	})
}
