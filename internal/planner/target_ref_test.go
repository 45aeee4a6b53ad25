package planner

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

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

// diffProfiles returns a profile per built-in track for the shuttle and
// the sedan, at the default and at a high speed limit, plus zoned
// urban-loop profiles (closed) and a zoned straight (open).
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
	for _, vn := range []string{"shuttle", "sedan"} {
		if err := add("zoned-urban-loop/"+vn, zoned, vehicles[vn]); err != nil {
			return nil, err
		}
		if err := add("zoned-straight/"+vn, zonedStraight, vehicles[vn]); err != nil {
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

// TestTargetAtMatchesFullPreview checks the braking-horizon exit bitwise
// on a 0.125 m grid over [−L, 2L], at the special values and at random
// arcs in [−2L, 3L]. The geom differential tests cover the lattice
// vertices themselves.
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
