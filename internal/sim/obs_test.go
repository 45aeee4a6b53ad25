package sim

import (
	"testing"

	"adassure/internal/obs"
)

// TestSampledMetricsExact pins what sampling keeps exact and what it
// samples: after one instrumented run every counter equals the run's own
// count, while each latency histogram holds one observation per
// obs.SampleEvery frames or steps, the first included.
func TestSampledMetricsExact(t *testing.T) {
	reg := obs.NewRegistry()
	mon := monitor()
	res, err := Run(Config{
		Track: urban(t), Controller: "pure-pursuit", Seed: 1,
		Duration: 20, Monitor: mon, DisableTrace: true, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames, skipped := mon.Frames()
	if frames != res.Steps || skipped != 0 {
		t.Fatalf("monitor saw %d frames (%d skipped) for %d steps", frames, skipped, res.Steps)
	}
	if frames%obs.SampleEvery == 0 {
		t.Fatalf("%d frames is a whole number of sample periods: the test cannot tell ceil from floor", frames)
	}
	samples := int64((frames + obs.SampleEvery - 1) / obs.SampleEvery)
	counters := map[string]int{"sim.steps": res.Steps, "monitor.frames": frames}
	histograms := map[string]int64{"sim.step_ns": samples, "monitor.step_ns": samples}
	for _, id := range mon.AssertionIDs() {
		counters["monitor."+id+".evals"] = frames
		histograms["monitor."+id+".eval_ns"] = samples
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range histograms {
		if got := reg.Histogram(name).Count(); got != want {
			t.Errorf("%s holds %d observations, want %d", name, got, want)
		}
	}
}
