package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"adassure/internal/core"
	"adassure/internal/trace"
)

func viol(id string, t float64) core.Violation {
	return core.Violation{AssertionID: id, T: t}
}

func TestDetect(t *testing.T) {
	vs := []core.Violation{viol("A3", 5), viol("A1", 21.5), viol("A2", 25)}
	d := Detect(vs, 20)
	if !d.Detected || d.ByID != "A1" {
		t.Errorf("detect = %+v", d)
	}
	if math.Abs(d.Latency-1.5) > 1e-12 {
		t.Errorf("latency = %g", d.Latency)
	}
	if d.FalsePositives != 1 {
		t.Errorf("FPs = %d", d.FalsePositives)
	}
	// Clean run: onset -1, everything is a false positive.
	d = Detect(vs, -1)
	if d.Detected || d.FalsePositives != 3 {
		t.Errorf("clean detect = %+v", d)
	}
	// No violations at all.
	if d := Detect(nil, 20); d.Detected || d.FalsePositives != 0 {
		t.Errorf("empty detect = %+v", d)
	}
}

func TestAggregate(t *testing.T) {
	ds := []Detection{
		{Detected: true, Latency: 1},
		{Detected: true, Latency: 3},
		{Detected: false, FalsePositives: 2},
		{Detected: true, Latency: 2},
	}
	r := Aggregate(ds)
	if r.Runs != 4 || r.Detected != 3 {
		t.Errorf("aggregate = %+v", r)
	}
	if math.Abs(r.DetectionRate-0.75) > 1e-12 {
		t.Errorf("rate = %g", r.DetectionRate)
	}
	if math.Abs(r.MeanLatency-2) > 1e-12 || math.Abs(r.MedianLatency-2) > 1e-12 {
		t.Errorf("latencies = %+v", r)
	}
	if r.FalsePositives != 2 || math.Abs(r.FPPerRun-0.5) > 1e-12 {
		t.Errorf("FPs = %+v", r)
	}
	if z := Aggregate(nil); z.Runs != 0 || z.DetectionRate != 0 {
		t.Errorf("empty aggregate = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if p := Percentile(vals, 50); p != 3 {
		t.Errorf("p50 = %g", p)
	}
	if p := Percentile(vals, 0); p != 1 {
		t.Errorf("p0 = %g", p)
	}
	if p := Percentile(vals, 100); p != 5 {
		t.Errorf("p100 = %g", p)
	}
	if p := Percentile(vals, 25); p != 2 {
		t.Errorf("p25 = %g", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if p := Percentile([]float64{7}, 90); p != 7 {
		t.Errorf("single-element percentile = %g", p)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		pa := math.Abs(math.Mod(a, 100))
		pb := math.Abs(math.Mod(b, 100))
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(vals, pa) <= Percentile(vals, pb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2, 2})
	if len(pts) != 3 {
		t.Fatalf("cdf pts = %v", pts)
	}
	if pts[0].Value != 1 || math.Abs(pts[0].Fraction-0.25) > 1e-12 {
		t.Errorf("pts[0] = %+v", pts[0])
	}
	if pts[1].Value != 2 || math.Abs(pts[1].Fraction-0.75) > 1e-12 {
		t.Errorf("pts[1] = %+v (duplicates should collapse to the upper fraction)", pts[1])
	}
	if pts[2].Value != 3 || pts[2].Fraction != 1 {
		t.Errorf("pts[2] = %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestComfortFrom(t *testing.T) {
	tr := trace.New()
	dt := 0.05
	for i := 0; i < 100; i++ {
		ts := float64(i) * dt
		tr.MustRecord("speed", ts, 5)
		steer := 0.1
		if i%2 == 1 {
			steer = -0.1 // bang-bang: reversals every step
		}
		tr.MustRecord("steer", ts, steer)
		tr.MustRecord("accel_cmd", ts, float64(i%2)) // jerk 1/dt = 20
	}
	c := ComfortFrom(tr)
	if c.MaxLatAccel <= 0 || c.RMSLatAccel <= 0 {
		t.Errorf("lat accel = %+v", c)
	}
	if math.Abs(c.MaxJerk-20) > 1e-6 {
		t.Errorf("max jerk = %g, want 20", c.MaxJerk)
	}
	if c.SteerReversalsPerMin < 500 {
		t.Errorf("reversals/min = %g, want ~1200", c.SteerReversalsPerMin)
	}
	if z := ComfortFrom(nil); z.MaxJerk != 0 {
		t.Error("nil trace comfort should be zero")
	}
}
