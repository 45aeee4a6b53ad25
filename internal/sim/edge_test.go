package sim

import (
	"math"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/geom"
	"adassure/internal/track"
)

// TestAttackFromTimeZero exercises attacks whose window opens at t=0 — no
// pre-attack capture history exists for stateful attacks, which must
// degrade gracefully instead of panicking or corrupting state.
func TestAttackFromTimeZero(t *testing.T) {
	for _, class := range []attacks.Class{
		attacks.ClassFreeze, attacks.ClassStepSpoof, attacks.ClassDropout, attacks.ClassDelay,
	} {
		camp, err := attacks.Standard(class, attacks.Window{Start: 0, End: 30}, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Track: urban(t), Controller: "pure-pursuit", Seed: 1, Duration: 40, Campaign: camp})
		if err != nil {
			t.Fatalf("%s from t=0: %v", class, err)
		}
		if res.Steps == 0 {
			t.Errorf("%s from t=0: no control steps", class)
		}
	}
}

// TestAttackWholeRun: the window never closes.
func TestAttackWholeRun(t *testing.T) {
	camp, err := attacks.Standard(attacks.ClassDriftSpoof, attacks.Window{Start: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor()
	res, err := Run(Config{Track: urban(t), Controller: "lqr-mpc", Seed: 1, Duration: 50, Campaign: camp, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mon.FirstViolationAfter(5); !ok {
		t.Error("open-ended drift undetected")
	}
	_ = res
}

// TestVeryShortRun: sub-second runs complete without underflow.
func TestVeryShortRun(t *testing.T) {
	res, err := Run(Config{Track: urban(t), Controller: "stanley", Seed: 1, Duration: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 1 || res.SimTime <= 0 {
		t.Errorf("short run: steps=%d t=%g", res.Steps, res.SimTime)
	}
}

// TestAllTracksAllControllersClean is the broad clean matrix: every
// built-in route × every controller completes without violations.
func TestAllTracksAllControllersClean(t *testing.T) {
	cat, err := track.Catalog(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range track.Names(cat) {
		for _, ctrl := range []string{"pure-pursuit", "stanley", "pid-lateral", "lqr-mpc"} {
			mon := monitor()
			res, err := Run(Config{Track: cat[name], Controller: ctrl, Seed: 7, Duration: 45, Monitor: mon})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, ctrl, err)
			}
			if res.Diverged {
				t.Errorf("%s/%s diverged", name, ctrl)
			}
			if n := len(mon.Violations()); n > 0 {
				t.Errorf("%s/%s: %d clean violations (%v)", name, ctrl, n, mon.FiredIDs())
			}
		}
	}
}

// TestGuardNeverEngagesOnCleanRuns: the defended stack must be transparent
// in nominal operation.
func TestGuardNeverEngagesOnCleanRuns(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		mon := core.NewCatalogMonitor(core.CatalogConfig{})
		res, err := Run(Config{
			Track: urban(t), Controller: "pure-pursuit", Seed: seed, Duration: 60,
			Monitor: mon, Guard: GuardConfig{Enabled: true, AssertionTrigger: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FallbackTime > 0 {
			t.Errorf("seed %d: guard engaged %.1f s on a clean run", seed, res.FallbackTime)
		}
		if res.MaxTrueCTE > 1.2 {
			t.Errorf("seed %d: guarded clean CTE %.2f m", seed, res.MaxTrueCTE)
		}
	}
}

// TestActuatorFaultsDetectedAndBounded: integration check for the
// actuation-path fault classes.
func TestActuatorFaultsDetectedAndBounded(t *testing.T) {
	for _, class := range []attacks.Class{attacks.ClassStuckSteer, attacks.ClassSteerOffset} {
		camp, err := attacks.Standard(class, attacks.Window{Start: 20, End: 50}, 1)
		if err != nil {
			t.Fatal(err)
		}
		mon := monitor()
		if _, err := Run(Config{Track: urban(t), Controller: "pure-pursuit", Seed: 1, Duration: 60, Campaign: camp, Monitor: mon}); err != nil {
			t.Fatal(err)
		}
		v, ok := mon.FirstViolationAfter(20)
		if !ok {
			t.Fatalf("%s undetected", class)
		}
		if v.AssertionID != "A14" {
			t.Errorf("%s first detector = %s, want A14", class, v.AssertionID)
		}
		if fp := countBefore(mon.Violations(), 20); fp > 0 {
			t.Errorf("%s: %d pre-onset violations", class, fp)
		}
	}
}

// TestCustomWaypointRouteWithSequenceAttack drives a user route under a
// two-stage campaign end to end.
func TestCustomWaypointRouteWithSequenceAttack(t *testing.T) {
	route, err := track.FromWaypoints("test-route", []geom.Vec2{
		{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 20}, {X: 150, Y: 20}, {X: 200, Y: 0}, {X: 260, Y: 0},
	}, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	step, err := attacks.NewStepSpoof(attacks.Window{Start: 10, End: 15}, geom.V(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	freeze, err := attacks.NewFreeze(attacks.Window{Start: 30, End: 40})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := attacks.NewSequence(step, freeze)
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor()
	res, err := Run(Config{
		Track: route, Controller: "lqr-mpc", Seed: 2, Duration: 70,
		Campaign: attacks.Campaign{GNSS: seq}, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mon.Violations()) == 0 {
		t.Fatal("two-stage campaign raised nothing")
	}
	if math.IsNaN(res.MaxTrueCTE) {
		t.Fatal("NaN in result")
	}
}
