package sim

import (
	"testing"

	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// TestControllerWeaknessDiagnosedWithoutAttack exercises the other half of
// the debugging story: no attack at all, but a controller with a known
// speed-dependent weakness (Stanley's 1/v cross-track gain) driven outside
// its comfort zone. The assertions must localise the defect to the
// controller, not to any sensor channel.
func TestControllerWeaknessDiagnosedWithoutAttack(t *testing.T) {
	tr, err := track.SCurve(8, 22) // fast S-curve
	if err != nil {
		t.Fatal(err)
	}
	sedan := vehicle.SedanParams()
	mon := core.NewCatalogMonitor(core.CatalogConfig{Limits: core.DefaultLimits(sedan), IncludeGroundTruth: true})
	res, err := Run(Config{
		Track: tr, Controller: "stanley", Vehicle: sedan,
		Seed: 1, Duration: 60, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fired=%v maxCTE=%.2f", mon.FiredIDs(), res.MaxTrueCTE)
	if len(mon.Violations()) == 0 {
		t.Skip("stanley stayed inside the envelope on this configuration")
	}
	hyps := diagnosis.Diagnose(mon.Violations())
	top := hyps[0].Cause
	if top != diagnosis.CauseCtrlOscillation && top != diagnosis.CauseCtrlTracking {
		t.Errorf("weakness diagnosed as %s, want a controller cause (fired %v)", top, mon.FiredIDs())
	}
}
