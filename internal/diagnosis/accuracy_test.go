package diagnosis

import (
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/sim"
	"adassure/internal/track"
)

// TestDiagnosisAccuracyEndToEnd scores the diagnosis engine against
// simulated attack campaigns with known ground truth — the integration-level
// acceptance test behind experiment T4.
func TestDiagnosisAccuracyEndToEnd(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	top1, top2, total := 0, 0, 0
	for _, class := range attacks.StandardClasses() {
		for seed := int64(1); seed <= 3; seed++ {
			camp, err := attacks.Standard(class, attacks.Window{Start: 20, End: 50}, seed)
			if err != nil {
				t.Fatal(err)
			}
			mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
			if _, err := sim.Run(sim.Config{
				Track: tr, Controller: "pure-pursuit", Seed: seed, Duration: 70,
				Campaign: camp, Monitor: mon,
			}); err != nil {
				t.Fatal(err)
			}
			hyps := Diagnose(mon.Violations())
			total++
			if string(hyps[0].Cause) == string(class) {
				top1++
				top2++
			} else if len(hyps) > 1 && string(hyps[1].Cause) == string(class) {
				top2++
				t.Logf("%s seed=%d diagnosed as %s (truth at rank 2)", class, seed, hyps[0].Cause)
			} else {
				t.Logf("%s seed=%d diagnosed as %s (truth below rank 2)", class, seed, hyps[0].Cause)
			}
		}
	}
	t.Logf("diagnosis accuracy: top-1 %d/%d, top-2 %d/%d", top1, total, top2, total)
	if float64(top1)/float64(total) < 0.8 {
		t.Errorf("top-1 accuracy %d/%d below 80%%", top1, total)
	}
	if float64(top2)/float64(total) < 0.95 {
		t.Errorf("top-2 accuracy %d/%d below 95%%", top2, total)
	}
}

// TestCleanRunDiagnosesNone confirms that nominal runs produce the
// CauseNone diagnosis — the methodology's false-alarm guard.
func TestCleanRunDiagnosesNone(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
		if _, err := sim.Run(sim.Config{
			Track: tr, Controller: "lqr-mpc", Seed: seed, Duration: 60,
			Monitor: mon,
		}); err != nil {
			t.Fatal(err)
		}
		hyps := Diagnose(mon.Violations())
		if hyps[0].Cause != CauseNone {
			t.Errorf("seed %d: clean run diagnosed as %s", seed, hyps[0].Cause)
		}
	}
}
