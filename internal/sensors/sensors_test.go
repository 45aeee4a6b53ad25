package sensors

import (
	"math"
	"testing"
	"testing/quick"

	"adassure/internal/vehicle"
)

// pollAll steps a sensor through [0, dur) at engine rate 1/dt, collecting
// all delivered readings.
func pollGNSS(g *GNSS, truth vehicle.State, dur, dt float64) []GNSSFix {
	var out []GNSSFix
	for t := 0.0; t < dur; t += dt {
		out = append(out, g.Poll(truth, t)...)
	}
	return out
}

func TestGNSSRate(t *testing.T) {
	g := NewGNSS(1)
	fixes := pollGNSS(g, vehicle.State{X: 5, Y: -3}, 10, 0.01)
	// 10 s at 10 Hz → ~100 fixes (±1 for boundary/latency effects).
	if len(fixes) < 98 || len(fixes) > 101 {
		t.Errorf("fix count = %d, want ~100", len(fixes))
	}
}

func TestGNSSLatency(t *testing.T) {
	g := NewGNSS(1)
	truth := vehicle.State{}
	// The sample taken at t=0 must not be delivered before t=gnssLatency.
	for ts := 0.0; ts < gnssLatency-0.005; ts += 0.01 {
		if got := g.Poll(truth, ts); len(got) != 0 {
			t.Fatalf("fix delivered at t=%.2f before latency elapsed", ts)
		}
	}
	got := g.Poll(truth, gnssLatency)
	if len(got) != 1 {
		t.Fatalf("expected delivery at t=%g, got %d fixes", gnssLatency, len(got))
	}
	if math.Abs(got[0].T-gnssLatency) > 1e-9 {
		t.Errorf("delivery time = %g", got[0].T)
	}
}

func TestGNSSNoiseStatistics(t *testing.T) {
	// Freeze the bias walk so the white position noise is measured alone.
	g := NewGNSS(42)
	g.nx.biasWalk, g.ny.biasWalk = 0, 0
	truth := vehicle.State{X: 10, Y: 20}
	fixes := pollGNSS(g, truth, 200, 0.01)
	if len(fixes) < 1000 {
		t.Fatalf("too few fixes: %d", len(fixes))
	}
	var sx, sxx float64
	for _, f := range fixes {
		e := f.Pos.X - truth.X
		sx += e
		sxx += e * e
	}
	n := float64(len(fixes))
	mean := sx / n
	std := math.Sqrt(sxx/n - mean*mean)
	if math.Abs(mean) > 0.03 {
		t.Errorf("noise mean = %g, want ~0", mean)
	}
	if math.Abs(std-0.15) > 0.03 {
		t.Errorf("noise std = %g, want ~0.15", std)
	}
}

func TestGNSSBiasBounded(t *testing.T) {
	// Silence the white noise and speed up the walk so the bias reaches
	// its saturation bound within the test.
	g := NewGNSS(7)
	g.nx.stddev, g.ny.stddev = 0, 0
	g.nx.biasWalk, g.ny.biasWalk = 0.05, 0.05
	var peak float64
	for _, f := range pollGNSS(g, vehicle.State{}, 600, 0.01) {
		if math.Abs(f.Pos.X) > gnssPosBiasMax || math.Abs(f.Pos.Y) > gnssPosBiasMax {
			t.Fatalf("bias escaped saturation: %v", f.Pos)
		}
		peak = math.Max(peak, math.Max(math.Abs(f.Pos.X), math.Abs(f.Pos.Y)))
	}
	if peak != gnssPosBiasMax {
		t.Errorf("bias peaked at %g, never reached the %g bound", peak, gnssPosBiasMax)
	}
}

func TestGNSSDeterministicPerSeed(t *testing.T) {
	mk := func() []GNSSFix {
		return pollGNSS(NewGNSS(99), vehicle.State{X: 1}, 2, 0.01)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fix %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := pollGNSS(NewGNSS(100), vehicle.State{X: 1}, 2, 0.01)
	same := len(a) == len(c)
	if same {
		same = false
		for i := range a {
			if a[i].Pos != c[i].Pos {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestGNSSSpeedNonNegative(t *testing.T) {
	// A true speed well inside the noise band: about half the raw
	// measurements are negative and must be clamped.
	g := NewGNSS(3)
	clamped := 0
	for _, f := range pollGNSS(g, vehicle.State{Speed: 0.01}, 20, 0.01) {
		if f.Speed < 0 {
			t.Fatalf("negative speed %g", f.Speed)
		}
		if f.Speed == 0 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Error("no measurement reached the clamp")
	}
}

func TestIMURateAndHeading(t *testing.T) {
	m := NewIMU(5)
	truth := vehicle.State{Heading: 1.0, YawRate: 0.2}
	var n int
	var meanH float64
	for ts := 0.0; ts < 5; ts += 0.002 {
		for _, r := range m.Poll(truth, ts) {
			n++
			meanH += r.Heading
			if !r.Valid {
				t.Fatal("invalid reading from healthy IMU")
			}
		}
	}
	if n < 495 || n > 502 {
		t.Errorf("reading count = %d, want ~500", n)
	}
	meanH /= float64(n)
	if math.Abs(meanH-1.0) > 0.02 {
		t.Errorf("mean heading = %g, want ~1.0", meanH)
	}
}

// TestOdometerScaleError: the odometer has no scale error; it reads the
// true speed plus zero-mean white noise.
func TestOdometerScaleError(t *testing.T) {
	o := NewOdometer(1)
	truth := vehicle.State{Speed: 10}
	var got float64
	var n int
	for ts := 0.0; ts < 2; ts += 0.005 {
		for _, r := range o.Poll(truth, ts) {
			got += r.Speed
			n++
		}
	}
	if n == 0 {
		t.Fatal("no readings")
	}
	if mean := got / float64(n); math.Abs(mean-10) > 0.01 {
		t.Errorf("mean odometer speed %g, want 10", mean)
	}
}

func TestOdometerNonNegativeProperty(t *testing.T) {
	f := func(seed int64, speed float64) bool {
		if math.IsNaN(speed) || math.IsInf(speed, 0) {
			return true
		}
		// Speeds within a few noise deviations of zero exercise the clamp.
		o := NewOdometer(seed)
		truth := vehicle.State{Speed: math.Abs(math.Mod(speed, 3*odomSpeedStdDev))}
		for ts := 0.0; ts < 1; ts += 0.01 {
			for _, r := range o.Poll(truth, ts) {
				if r.Speed < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSamplerPhaseStability(t *testing.T) {
	s := sampler{period: 0.1}
	var fired int
	for t0 := 0.0; t0 < 10; t0 += 0.013 { // engine rate not a multiple of sensor rate
		if s.due(t0) {
			fired++
		}
	}
	if fired < 99 || fired > 101 {
		t.Errorf("sampler fired %d times in 10 s at 10 Hz", fired)
	}
}

// TestDefaultsApplied: every sensor samples at its fixed rate, with the
// period computed as the float64 quotient 1/rate, and delivers after its
// fixed latency.
func TestDefaultsApplied(t *testing.T) {
	for _, c := range []struct {
		name          string
		s             sampler
		rate, latency float64
	}{
		{"gnss", NewGNSS(1).s, 10, 0.05},
		{"imu", NewIMU(1).s, 100, 0.005},
		{"odometer", NewOdometer(1).s, 50, 0.01},
	} {
		if want := 1 / c.rate; math.Float64bits(c.s.period) != math.Float64bits(want) {
			t.Errorf("%s period = %v, want 1/%g = %v", c.name, c.s.period, c.rate, want)
		}
		if c.s.latency != c.latency {
			t.Errorf("%s latency = %g, want %g", c.name, c.s.latency, c.latency)
		}
	}
}
