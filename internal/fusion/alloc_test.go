package fusion

import (
	"testing"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// ekfSink keeps NewEKF's result on the heap, as every real caller does.
var ekfSink *EKF

// TestEKFAllocs pins the filter's memory contract: construction allocates
// the filter itself and nothing else, and predicts and updates run on
// stack arrays without touching the heap.
func TestEKFAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ekfSink = NewEKF(DefaultGate, 0, geom.NewPose(0, 0, 0), 5) }); n != 1 {
		t.Errorf("NewEKF allocates %.1f objects, want 1", n)
	}
	f := NewEKF(DefaultGate, 0, geom.NewPose(0, 0, 0), 5)
	tt := 0.0
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"PredictIMU", func() {
			tt += 0.01
			f.PredictIMU(sensors.IMUReading{T: tt, YawRate: 0.01, Valid: true})
		}},
		{"UpdateGNSS", func() { f.UpdateGNSS(sensors.GNSSFix{T: tt, Pos: geom.V(5*tt, 0), Valid: true}) }},
		{"UpdateOdom", func() { f.UpdateOdom(sensors.OdomReading{T: tt, Speed: 5, Valid: true}) }},
	} {
		if n := testing.AllocsPerRun(200, c.op); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", c.name, n)
		}
	}
}
