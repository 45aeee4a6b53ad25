package track

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"adassure/internal/geom"
)

func TestWithZonesValidation(t *testing.T) {
	tr, err := Straight(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WithZones(SpeedZone{Start: 10, End: 5, Limit: 3}); err == nil {
		t.Error("inverted zone accepted")
	}
	if _, err := tr.WithZones(SpeedZone{Start: 10, End: 20, Limit: 0}); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := tr.WithZones(SpeedZone{Start: 500, End: 600, Limit: 3}); err == nil {
		t.Error("zone beyond path accepted")
	}
	if _, err := tr.WithZones(
		SpeedZone{Start: 10, End: 30, Limit: 3},
		SpeedZone{Start: 25, End: 40, Limit: 2},
	); err == nil {
		t.Error("overlapping zones accepted")
	}
}

func TestLimitAt(t *testing.T) {
	base, err := Straight(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(
		SpeedZone{Start: 50, End: 80, Limit: 3},
		SpeedZone{Start: 120, End: 140, Limit: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ s, want float64 }{
		{0, 8}, {49.9, 8}, {50, 3}, {79.9, 3}, {80, 8}, {130, 2}, {150, 8},
	}
	for _, c := range cases {
		if got := tr.LimitAt(c.s); got != c.want {
			t.Errorf("LimitAt(%g) = %g, want %g", c.s, got, c.want)
		}
	}
	// Zone limits never raise above the base limit.
	up, err := base.WithZones(SpeedZone{Start: 10, End: 20, Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := up.LimitAt(15); got != 8 {
		t.Errorf("zone must not raise the base limit: got %g", got)
	}
	// Original track untouched (value-copy semantics).
	if base.LimitAt(60) != 8 {
		t.Error("WithZones mutated the receiver")
	}
}

func TestLimitAtWrapsClosedTracks(t *testing.T) {
	base, err := Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(SpeedZone{Start: 0, End: 10, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	L := tr.Path().Length()
	if got := tr.LimitAt(L + 5); got != 2 {
		t.Errorf("wrapped LimitAt = %g, want 2", got)
	}
	if got := tr.LimitAt(-L + 5); got != 2 {
		t.Errorf("negative-wrapped LimitAt = %g, want 2", got)
	}
}

// refLimitAt is LimitAt's former wrap by repeated add and subtract,
// which never returns for an infinite s or one where s − L == s.
func refLimitAt(t *Track, s float64) float64 {
	L := t.path.Length()
	for s < 0 {
		s += L
	}
	for s >= L {
		s -= L
	}
	return t.LimitAt(s)
}

// TestLimitAtWrapEdges: LimitAt returns for every arc (NaN and ±Inf get the
// base limit), and on [−L, 2L) it wraps exactly as the former loop did.
func TestLimitAtWrapEdges(t *testing.T) {
	base, err := UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	L := base.Path().Length()
	tr, err := base.WithZones(SpeedZone{Start: 0, End: 10, Limit: 2}, SpeedZone{Start: L - 5, End: L + 3, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		s, got float64
	}
	results := make(chan result)
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e17, -1e17}
	go func() {
		for _, s := range edges {
			results <- result{s, tr.LimitAt(s)}
		}
		close(results)
	}()
	deadline := time.After(5 * time.Second)
	for range edges {
		select {
		case r := <-results:
			if math.IsNaN(r.s) || math.IsInf(r.s, 0) {
				if r.got != 6 {
					t.Errorf("LimitAt(%v) = %v, want the base limit 6", r.s, r.got)
				}
			} else if r.got != 6 && r.got != 2 && r.got != 3 {
				t.Errorf("LimitAt(%v) = %v, not a limit of the track", r.s, r.got)
			}
		case <-deadline:
			t.Fatal("LimitAt did not return within 5 s")
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20000; k++ {
		s := (rng.Float64()*3 - 1) * L
		if k%2 == 0 {
			// Land on and beside the zone edges and the seam.
			s = []float64{0, 10, L - 5, L, -L, L + 10, 2*L - 5, L + 3, 2 * L}[rng.Intn(9)]
			if step := rng.Intn(3); step != 1 {
				s = math.Nextafter(s, float64(step-1)*math.Inf(1))
			}
		}
		if got, want := tr.LimitAt(s), refLimitAt(tr, s); got != want {
			t.Fatalf("LimitAt(%v) = %v, former wrap gives %v", s, got, want)
		}
	}
}

func TestFromWaypoints(t *testing.T) {
	wps := []geom.Vec2{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 10}, {X: 90, Y: 10}}
	tr, err := FromWaypoints("depot-run", wps, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "depot-run" || tr.SpeedLimit() != 5 {
		t.Error("metadata wrong")
	}
	if math.Abs(tr.Path().Length()-95) > 5 {
		t.Errorf("length = %g, want ~95", tr.Path().Length())
	}
	// Waypoints lie on the route.
	for _, w := range wps {
		if _, lat := tr.Path().Project(w); math.Abs(lat) > 0.1 {
			t.Errorf("waypoint %v is %.3f m off the route", w, lat)
		}
	}
	if _, err := FromWaypoints("bad", nil, false, 5); err == nil {
		t.Error("empty waypoints accepted")
	}
}

func TestZonesCopied(t *testing.T) {
	base, err := Straight(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := base.WithZones(SpeedZone{Start: 10, End: 20, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	zs := tr.Zones()
	zs[0].Limit = 99
	if tr.Zones()[0].Limit != 3 {
		t.Error("Zones returned aliased storage")
	}
}
