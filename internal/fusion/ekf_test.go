package fusion

import (
	"math"
	"math/rand"
	"testing"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// simulateStraight runs the EKF against synthetic truth moving along +x at
// constant speed, with the given GNSS noise and an optional spoof offset
// applied from spoofT onward. Returns the filter and the final truth pos.
func simulateStraight(gate float64, seed int64, dur, speed, gnssNoise float64, spoof geom.Vec2, spoofT float64) (*EKF, geom.Vec2) {
	f := NewEKF(gate, 0, geom.NewPose(0, 0, 0), speed)
	rng := rand.New(rand.NewSource(seed))
	const imuDT = 0.01
	gnssEvery := 10 // every 10 IMU steps → 10 Hz
	var truth geom.Vec2
	step := 0
	for t := imuDT; t <= dur; t += imuDT {
		truth = geom.V(speed*t, 0)
		f.PredictIMU(sensors.IMUReading{T: t, YawRate: 0, Accel: 0, Heading: 0, Valid: true})
		step++
		if step%gnssEvery == 0 {
			pos := truth.Add(geom.V(rng.NormFloat64()*gnssNoise, rng.NormFloat64()*gnssNoise))
			if spoofT > 0 && t >= spoofT {
				pos = pos.Add(spoof)
			}
			f.UpdateGNSS(sensors.GNSSFix{T: t, Pos: pos, Valid: true})
		}
		if step%2 == 0 {
			f.UpdateOdom(sensors.OdomReading{T: t, Speed: speed + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	return f, truth
}

func TestEKFConvergesOnCleanData(t *testing.T) {
	f, truth := simulateStraight(0, 1, 20, 5, 0.15, geom.Vec2{}, 0)
	e := f.Estimate()
	if d := e.Pose.Pos.Dist(truth); d > 0.3 {
		t.Errorf("position error %.3f m after 20 s clean run", d)
	}
	if math.Abs(e.Speed-5) > 0.1 {
		t.Errorf("speed estimate %.3f, want ~5", e.Speed)
	}
	if math.Abs(e.Pose.Heading) > 0.05 {
		t.Errorf("heading estimate %.3f, want ~0", e.Pose.Heading)
	}
	if e.PosStdDev > 0.5 || e.PosStdDev <= 0 {
		t.Errorf("position stddev %.3f implausible", e.PosStdDev)
	}
}

func TestEKFCovariancePSDAndBounded(t *testing.T) {
	f, _ := simulateStraight(0, 2, 30, 4, 0.15, geom.Vec2{}, 0)
	p := f.Covariance()
	for i := 0; i < 4; i++ {
		if p[i*4+i] <= 0 {
			t.Errorf("covariance diagonal %d = %g, must be positive", i, p[i*4+i])
		}
		if p[i*4+i] > 10 {
			t.Errorf("covariance diagonal %d = %g diverged", i, p[i*4+i])
		}
		for j := 0; j < 4; j++ {
			if math.Abs(p[i*4+j]-p[j*4+i]) > 1e-9 {
				t.Error("covariance asymmetric")
			}
		}
	}
	// 2x2 position block must be PSD: det ≥ 0 and trace ≥ 0.
	det := p[0]*p[5] - p[1]*p[4]
	if det < 0 {
		t.Errorf("position covariance block not PSD: det=%g", det)
	}
}

func TestEKFGateRejectsSpoof(t *testing.T) {
	// 5 s of 30 m spoof: the gate holds and the estimate stays near truth.
	f, truth := simulateStraight(DefaultGate, 3, 25, 5, 0.15, geom.V(0, 30), 20)
	e := f.Estimate()
	if d := e.Pose.Pos.Dist(truth); d > 2 {
		t.Errorf("gated filter dragged %.2f m by spoof", d)
	}
	if f.RejectStreak() == 0 {
		t.Error("gate should be rejecting at end of spoofed run")
	}
	nis, accepted := f.LastNIS()
	if accepted || nis < DefaultGate {
		t.Errorf("last spoofed update should be rejected with high NIS, got %g accepted=%v", nis, accepted)
	}
}

func TestEKFGateCreepsUnderSustainedSpoof(t *testing.T) {
	// Documented limitation that motivates the dead-reckoning fallback in
	// the guarded stack: while the gate rejects, the covariance grows
	// (heading is unobserved without GNSS), so after enough sustained
	// spoofing the gate re-accepts and the filter is dragged.
	f, truth := simulateStraight(DefaultGate, 3, 35, 5, 0.15, geom.V(0, 30), 20)
	if d := f.Estimate().Pose.Pos.Dist(truth); d < 5 {
		t.Errorf("expected gate creep after 15 s of spoofing; error only %.2f m", d)
	}
}

func TestEKFUngatedFollowsSpoof(t *testing.T) {
	f, truth := simulateStraight(0, 3, 30, 5, 0.15, geom.V(0, 30), 20)
	e := f.Estimate()
	// Without the gate the filter is dragged toward the spoofed position.
	if d := e.Pose.Pos.Dist(truth); d < 10 {
		t.Errorf("ungated filter only moved %.2f m under a 30 m spoof", d)
	}
}

func TestEKFNISSpikesAtSpoofOnset(t *testing.T) {
	f := NewEKF(0, 0, geom.NewPose(0, 0, 0), 5)
	for t0 := 0.01; t0 <= 10; t0 += 0.01 {
		f.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
		if int(t0*100)%10 == 0 {
			f.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: geom.V(5*t0, 0), Valid: true})
		}
	}
	// Spoofed fix 8 m off: NIS must spike far above clean values.
	nis, _ := f.UpdateGNSS(sensors.GNSSFix{T: 10.01, Pos: geom.V(50.05, 8), Valid: true})
	if nis < 50 {
		t.Errorf("NIS at spoof onset = %g, want large", nis)
	}
}

func TestEKFIgnoresInvalidAndStaleReadings(t *testing.T) {
	f := NewEKF(0, 5, geom.NewPose(1, 2, 0.3), 2)
	before := f.Estimate()
	f.PredictIMU(sensors.IMUReading{T: 4, Valid: true})   // stale
	f.PredictIMU(sensors.IMUReading{T: 6, Valid: false})  // invalid
	f.UpdateGNSS(sensors.GNSSFix{T: 6, Valid: false})     // invalid
	f.UpdateOdom(sensors.OdomReading{T: 6, Valid: false}) // invalid
	after := f.Estimate()
	if before.Pose != after.Pose || before.Speed != after.Speed {
		t.Error("invalid/stale readings perturbed the filter")
	}
}

func TestEKFTurnTracking(t *testing.T) {
	// Truth: circle at constant speed and yaw rate.
	const (
		speed = 4.0
		yaw   = 0.2 // rad/s
		dur   = 30.0
	)
	f := NewEKF(0, 0, geom.NewPose(0, 0, 0), speed)
	rng := rand.New(rand.NewSource(9))
	r := speed / yaw
	truthAt := func(t float64) geom.Vec2 {
		// Start at origin heading +x, turning left: center (0, r).
		a := yaw * t
		return geom.V(r*math.Sin(a), r-r*math.Cos(a))
	}
	step := 0
	for t0 := 0.01; t0 <= dur; t0 += 0.01 {
		f.PredictIMU(sensors.IMUReading{T: t0, YawRate: yaw + rng.NormFloat64()*0.005, Valid: true})
		step++
		if step%10 == 0 {
			p := truthAt(t0).Add(geom.V(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15))
			f.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: p, Valid: true})
		}
		if step%2 == 0 {
			f.UpdateOdom(sensors.OdomReading{T: t0, Speed: speed + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	if d := f.Estimate().Pose.Pos.Dist(truthAt(dur)); d > 0.5 {
		t.Errorf("turn tracking error %.3f m", d)
	}
}

func TestDeadReckonerStraight(t *testing.T) {
	d := NewDeadReckoner(0, geom.NewPose(0, 0, 0), 5)
	for t0 := 0.01; t0 <= 10; t0 += 0.01 {
		d.StepIMU(sensors.IMUReading{T: t0, YawRate: 0, Accel: 0, Valid: true})
	}
	e := d.Estimate()
	if math.Abs(e.Pose.Pos.X-50) > 0.1 || math.Abs(e.Pose.Pos.Y) > 1e-9 {
		t.Errorf("dead reckoning end = %v, want (50,0)", e.Pose.Pos)
	}
	if !math.IsInf(e.PosStdDev, 1) {
		t.Error("dead reckoner should report unbounded position uncertainty")
	}
}

func TestDeadReckonerResetAndOdom(t *testing.T) {
	d := NewDeadReckoner(0, geom.NewPose(0, 0, 0), 0)
	d.ObserveOdom(sensors.OdomReading{T: 0.1, Speed: 3, Valid: true})
	for t0 := 0.11; t0 < 1.11; t0 += 0.01 {
		d.StepIMU(sensors.IMUReading{T: t0, Valid: true})
	}
	// Reckoner anchored at t=0; first IMU step covers [0, 0.11] and the loop
	// ends at t≈1.11, all at 3 m/s → x ≈ 3.33.
	if math.Abs(d.Estimate().Pose.Pos.X-3.33) > 0.05 {
		t.Errorf("odom-informed reckoning x = %g, want ~3.33", d.Estimate().Pose.Pos.X)
	}
	d.Reset(5, geom.NewPose(100, 0, 0), 1)
	if d.Estimate().Pose.Pos.X != 100 || d.Estimate().T != 5 {
		t.Error("reset did not re-anchor")
	}
}

// TestEKFNISDistribution: on clean data the normalised innovation squared
// is ~χ²(2): mean ≈ 2 and rarely above the 99% gate. This is the statistic
// assertion A10 and the guard's gate rely on.
func TestEKFNISDistribution(t *testing.T) {
	f := NewEKF(0, 0, geom.NewPose(0, 0, 0), 5)
	rng := rand.New(rand.NewSource(21))
	var sum float64
	var n, above int
	step := 0
	for t0 := 0.01; t0 <= 120; t0 += 0.01 {
		f.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
		step++
		if step%10 == 0 {
			pos := geom.V(5*t0+rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
			nis, _ := f.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: pos, Valid: true})
			if t0 > 10 { // after convergence
				sum += nis
				n++
				if nis > DefaultGate {
					above++
				}
			}
		}
		if step%2 == 0 {
			f.UpdateOdom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	mean := sum / float64(n)
	if mean < 1.0 || mean > 3.0 {
		t.Errorf("NIS mean = %.2f, want ~2 (χ² with 2 DOF)", mean)
	}
	if frac := float64(above) / float64(n); frac > 0.05 {
		t.Errorf("%.1f%% of clean NIS above the 99%% gate", frac*100)
	}
}

func TestComplementaryTracksStraight(t *testing.T) {
	c := NewComplementary(0, geom.NewPose(0, 0, 0), 5)
	rng := rand.New(rand.NewSource(4))
	step := 0
	var truth geom.Vec2
	for t0 := 0.01; t0 <= 30; t0 += 0.01 {
		truth = geom.V(5*t0, 0)
		c.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
		step++
		if step%10 == 0 {
			c.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: truth.Add(geom.V(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15)), Valid: true})
		}
		if step%2 == 0 {
			c.UpdateOdom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.02, Valid: true})
		}
	}
	e := c.Estimate()
	if d := e.Pose.Pos.Dist(truth); d > 0.5 {
		t.Errorf("complementary drifted %.2f m on clean straight", d)
	}
	if math.Abs(e.Speed-5) > 0.1 {
		t.Errorf("speed = %.2f", e.Speed)
	}
	if !math.IsInf(e.PosStdDev, 1) {
		t.Error("complementary has no covariance; PosStdDev should be +Inf")
	}
	if nis, ok := c.LastNIS(); nis != 0 || !ok {
		t.Error("complementary LastNIS should be (0, true)")
	}
	if c.RejectStreak() != 0 {
		t.Error("complementary has no gate")
	}
}

func TestComplementaryComparableToEKFOnStraight(t *testing.T) {
	// On a constant-velocity straight, a well-tuned fixed-gain blend is
	// competitive with the EKF (steady state is where fixed gains shine);
	// the closed-loop advantage of the EKF shows up on manoeuvring runs —
	// see experiment X5. Here we only require comparability.
	run := func(loc Localizer) float64 {
		rng := rand.New(rand.NewSource(11))
		var sumSq float64
		var n int
		step := 0
		for t0 := 0.01; t0 <= 60; t0 += 0.01 {
			truth := geom.V(5*t0, 0)
			loc.PredictIMU(sensors.IMUReading{T: t0, Valid: true})
			step++
			if step%10 == 0 {
				loc.UpdateGNSS(sensors.GNSSFix{T: t0, Pos: truth.Add(geom.V(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)), Valid: true})
			}
			if step%2 == 0 {
				loc.UpdateOdom(sensors.OdomReading{T: t0, Speed: 5 + rng.NormFloat64()*0.02, Valid: true})
			}
			if t0 > 10 && step%20 == 0 {
				d := loc.Estimate().Pose.Pos.Dist(truth)
				sumSq += d * d
				n++
			}
		}
		return math.Sqrt(sumSq / float64(n))
	}
	ekfRMS := run(NewEKF(0, 0, geom.NewPose(0, 0, 0), 5))
	compRMS := run(NewComplementary(0, geom.NewPose(0, 0, 0), 5))
	t.Logf("position RMS: ekf %.3f m, complementary %.3f m", ekfRMS, compRMS)
	if ekfRMS > 0.3 || compRMS > 0.3 {
		t.Errorf("localizer RMS out of band: ekf %.3f, complementary %.3f", ekfRMS, compRMS)
	}
	if compRMS > ekfRMS*1.8 || ekfRMS > compRMS*1.8 {
		t.Errorf("localizers should be comparable on a straight: ekf %.3f vs complementary %.3f", ekfRMS, compRMS)
	}
}
