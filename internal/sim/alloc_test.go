package sim

import (
	"testing"

	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// TestSteadyStateStepAllocs pins the zero-allocation hot-path contract end
// to end: the marginal heap cost of additional simulated time — physics,
// sensor delivery, fusion, control, full-catalog monitoring and frame
// recording — must stay near zero once a run has warmed up, under every
// lateral controller. Setup cost (controllers, planner, EKF, the frame
// buffer's reservation) is excluded by differencing two run lengths, so this test
// fails only when a per-step allocation sneaks back into the loop.
func TestSteadyStateStepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full-length runs")
	}
	trk, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctrl := range control.All(vehicle.ShuttleParams()) {
		allocsFor := func(duration float64) float64 {
			return testing.AllocsPerRun(3, func() {
				mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
				if _, err := Run(Config{
					Track: trk, Controller: ctrl.Name(), Seed: 1,
					Duration: duration, Monitor: mon, RecordFrames: true,
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short := allocsFor(2)
		long := allocsFor(12)
		perSecond := (long - short) / 10 // 20 control + 100 engine steps each
		// Headroom: a simulated second is 120 loop iterations; the budget of
		// 10 allocations/s (~0.08/iteration) absorbs rare amortized events
		// (map rehash, slice doubling past the reserve, a gain-cache entry
		// for a new speed bucket) while still failing if any true per-step
		// allocation returns.
		if perSecond > 10 {
			t.Errorf("%s: steady-state sim costs %.1f allocs per simulated second (short=%.0f long=%.0f), want ≤10",
				ctrl.Name(), perSecond, short, long)
		}
	}
}
