// Package fusion implements the localization stack the controllers consume:
// an extended Kalman filter over [x, y, heading, speed] fed by IMU
// (prediction) and GNSS/odometry (updates), with χ²-gated innovations, plus
// a dead-reckoning fallback. The innovation statistics it exposes feed the
// A10 InnovationGate assertion; the gating switch is the "guard" the
// debug-loop experiment toggles.
package fusion

import (
	"fmt"
	"math"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// Estimate is the fused localization output consumed by the controllers.
type Estimate struct {
	T       float64
	Pose    geom.Pose
	Speed   float64
	YawRate float64
	// PosStdDev is the 1-σ position uncertainty (geometric mean of the two
	// axes), handy for monitoring; +Inf from a localizer that keeps no
	// position covariance.
	PosStdDev float64
}

// Filter tuning. Process noise is a continuous-time spectral density,
// discretised by dt; measurement noise is a 1-σ deviation.
const (
	posProcNoise     = 0.05 // m²/s
	headingProcNoise = 0.01 // rad²/s
	speedProcNoise   = 0.5  // (m/s)²/s

	gnssPosStdDev    = 0.2  // m
	odomSpeedStdDev  = 0.05 // m/s
	initialPosStdDev = 1.0  // m, seeds the covariance
)

// DefaultGate is the 99th-percentile χ² threshold for the 2-DOF GNSS
// position innovation.
const DefaultGate = 9.21

// The variances are squared at run time, in float64: 0.2*0.2 rounds to
// 0.04000000000000001 there, while the constant expression is exactly 0.04.
var (
	gnssVar = sq(gnssPosStdDev)
	odomVar = sq(odomSpeedStdDev)
	initVar = sq(initialPosStdDev)

	// Observation models: H selects [x, y] for GNSS and [v] for odometry.
	// A row vector and its transpose share one row-major layout, so h1
	// serves as both 1×4 and 4×1.
	h2  = [8]float64{1, 0, 0, 0, 0, 1, 0, 0}
	h2T = [8]float64{1, 0, 0, 1, 0, 0, 0, 0}
	h1  = [4]float64{0, 0, 0, 1}
	r2  = [4]float64{gnssVar, 0, 0, gnssVar}

	eye4 = [16]float64{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
)

func sq(x float64) float64 { return x * x }

// EKF is an extended Kalman filter over the state [x, y, θ, v]. Every
// matrix is a fixed row-major array and every temporary lives on the
// stack, so predicts and updates never allocate. It is not safe for
// concurrent use.
type EKF struct {
	gate float64 // χ² gate on the GNSS NIS; 0 disables gating

	x [4]float64  // state
	p [16]float64 // 4×4 covariance
	t float64

	yawRate float64 // latest IMU yaw rate, for the estimate output

	lastNIS      float64 // latest GNSS normalised innovation squared
	lastAccepted bool
	rejectStreak int
}

// NewEKF builds a filter initialised at the given pose and speed. gate is
// the χ² threshold on the GNSS normalised innovation squared (DefaultGate
// ≈ 99th percentile for the 2-DOF fix); zero disables gating, the
// unguarded configuration in the experiments.
func NewEKF(gate, t0 float64, pose geom.Pose, speed float64) *EKF {
	return &EKF{
		gate:         gate,
		x:            [4]float64{pose.Pos.X, pose.Pos.Y, pose.Heading, speed},
		p:            [16]float64{0: initVar, 5: initVar, 10: 0.05, 15: 0.25},
		t:            t0,
		lastAccepted: true,
	}
}

// Time returns the filter's current time.
func (f *EKF) Time() float64 { return f.t }

// PredictIMU propagates the state to reading time using the IMU's yaw rate
// and longitudinal acceleration. Out-of-order readings are ignored.
func (f *EKF) PredictIMU(r sensors.IMUReading) {
	if !r.Valid || r.T <= f.t {
		return
	}
	dt := r.T - f.t
	f.t = r.T
	f.yawRate = r.YawRate

	th := f.x[2]
	v := f.x[3]
	// Midpoint heading for the position propagation.
	thMid := th + r.YawRate*dt/2
	sin, cos := geom.Sincos(thMid)
	f.x[0] += v * cos * dt
	f.x[1] += v * sin * dt
	f.x[2] = geom.NormalizeAngle(th + r.YawRate*dt)
	f.x[3] = math.Max(0, v+r.Accel*dt)

	// The Jacobian of the motion model wrt the state is the identity plus
	// a, b in row 0 and c, d in row 1, columns 2 and 3.
	a, b, c, d := -v*sin*dt, cos*dt, v*cos*dt, sin*dt

	Q := [16]float64{0: posProcNoise * dt, 5: posProcNoise * dt, 10: headingProcNoise * dt, 15: speedProcNoise * dt}

	// p ← sym(F·p·Fᵀ + Q).
	var FpFT [16]float64
	predictCov(&FpFT, &f.p, a, b, c, d)
	if !finite(FpFT[:]) {
		F := eye4
		F[2], F[3], F[6], F[7] = a, b, c, d
		var FT, Fp [16]float64
		Transpose(FT[:], F[:], 4)
		Mul(Fp[:], F[:], f.p[:], 4)
		Mul(FpFT[:], Fp[:], FT[:], 4)
	}
	for i := range FpFT {
		FpFT[i] += Q[i]
	}
	Symmetrize(f.p[:], FpFT[:], 4)
}

// UpdateGNSS fuses a position fix. It returns the normalised innovation
// squared (NIS) and whether the measurement was accepted. With gating
// enabled, measurements whose NIS exceeds the threshold are rejected and
// do not perturb the state — the fusion-level "guard".
func (f *EKF) UpdateGNSS(fix sensors.GNSSFix) (nis float64, accepted bool) {
	if !fix.Valid {
		return 0, false
	}
	y := [2]float64{fix.Pos.X - f.x[0], fix.Pos.Y - f.x[1]}

	// S = H·p·Hᵀ + R; NIS = yᵀ·S⁻¹·y. H selects [x, y], so H·p·Hᵀ is p's
	// top-left block and p·Hᵀ its first two columns. Picking them equals
	// Mul's products bit for bit while every entry of p is finite (see
	// predictCov); otherwise a dropped 0·Inf would have been NaN.
	var S, Sinv [4]float64
	var pht [8]float64
	if finite(f.p[:]) {
		S = [4]float64{0 + f.p[0], 0 + f.p[1], 0 + f.p[4], 0 + f.p[5]}
		for i := 0; i < 4; i++ {
			pht[2*i], pht[2*i+1] = 0+f.p[4*i], 0+f.p[4*i+1]
		}
	} else {
		var hp [8]float64
		Mul(hp[:], h2[:], f.p[:], 4)
		Mul(S[:], hp[:], h2T[:], 4)
		Mul(pht[:], f.p[:], h2T[:], 4)
	}
	for i := range S {
		S[i] += r2[i]
	}
	Inv(Sinv[:], S[:], 2)
	var ySinv [2]float64
	var yy [1]float64
	Mul(ySinv[:], y[:], Sinv[:], 2)
	Mul(yy[:], ySinv[:], y[:], 2)
	nis = yy[0]
	f.lastNIS = nis

	if f.gate > 0 && nis > f.gate {
		f.lastAccepted = false
		f.rejectStreak++
		return nis, false
	}
	f.lastAccepted = true
	f.rejectStreak = 0

	// K = p·Hᵀ·S⁻¹.
	var K [8]float64
	Mul(K[:], pht[:], Sinv[:], 2)
	f.correct(K[:], h2[:], y[:])
	f.x[2] = geom.NormalizeAngle(f.x[2])
	f.x[3] = math.Max(0, f.x[3])
	return nis, true
}

// UpdateOdom fuses a wheel-speed measurement (1-DOF, ungated — wheel odometry
// is the trusted channel in this stack).
func (f *EKF) UpdateOdom(r sensors.OdomReading) {
	if !r.Valid {
		return
	}
	y := [1]float64{r.Speed - f.x[3]}
	// H selects v, so H·p·Hᵀ is p's last diagonal entry and p·Hᵀ its last
	// column; picked while p is finite, as in UpdateGNSS.
	var pht, K [4]float64
	var S, Sinv [1]float64
	if finite(f.p[:]) {
		S[0] = 0 + f.p[15]
		for i := range pht {
			pht[i] = 0 + f.p[4*i+3]
		}
	} else {
		var hp [4]float64
		Mul(hp[:], h1[:], f.p[:], 4)
		Mul(S[:], hp[:], h1[:], 4)
		Mul(pht[:], f.p[:], h1[:], 4)
	}
	S[0] += odomVar
	Inv(Sinv[:], S[:], 1)
	Mul(K[:], pht[:], Sinv[:], 1)
	f.correct(K[:], h1[:], y[:])
	f.x[3] = math.Max(0, f.x[3])
}

// correct applies an accepted update with gain K (4×m), selector
// observation model H (m×4: h2 or h1) and innovation y (m×1):
// x ← x + K·y; p ← sym((I − K·H)·p).
func (f *EKF) correct(K, H, y []float64) {
	m := len(y)
	var dx [4]float64
	Mul(dx[:], K, y, m)
	for i := range f.x {
		f.x[i] += dx[i]
	}
	var p [16]float64
	correctCov(&p, &f.p, K)
	if !finite(p[:]) {
		var KH, IKH [16]float64
		Mul(KH[:], K, H, m)
		for i := range IKH {
			IKH[i] = eye4[i] - KH[i]
		}
		Mul(p[:], IKH[:], f.p[:], 4)
	}
	Symmetrize(f.p[:], p[:], 4)
}

// Estimate returns the current fused estimate.
func (f *EKF) Estimate() Estimate {
	sx := math.Sqrt(math.Max(0, f.p[0]))
	sy := math.Sqrt(math.Max(0, f.p[5]))
	return Estimate{
		T:         f.t,
		Pose:      geom.Pose{Pos: geom.V(f.x[0], f.x[1]), Heading: f.x[2]},
		Speed:     f.x[3],
		YawRate:   f.yawRate,
		PosStdDev: math.Sqrt(sx * sy),
	}
}

// LastNIS returns the normalised innovation squared of the most recent GNSS
// update attempt, and whether it was accepted. Feeds assertion A10.
func (f *EKF) LastNIS() (nis float64, accepted bool) { return f.lastNIS, f.lastAccepted }

// RejectStreak returns how many consecutive GNSS updates the gate has
// rejected — the signal the guarded stack uses to fall back to dead
// reckoning and brake.
func (f *EKF) RejectStreak() int { return f.rejectStreak }

// Covariance returns the row-major 4×4 covariance matrix (for tests and
// diagnostics).
func (f *EKF) Covariance() [16]float64 { return f.p }

// String implements fmt.Stringer.
func (f *EKF) String() string {
	e := f.Estimate()
	return fmt.Sprintf("ekf{t=%.2f %s v=%.2f σ=%.2f}", e.T, e.Pose, e.Speed, e.PosStdDev)
}

// DeadReckoner integrates IMU heading and odometry speed from a reference
// pose — the fallback localizer when GNSS is rejected or absent.
type DeadReckoner struct {
	t       float64
	pose    geom.Pose
	speed   float64
	yawRate float64
	init    bool
}

// NewDeadReckoner starts dead reckoning from the given pose and speed.
func NewDeadReckoner(t0 float64, pose geom.Pose, speed float64) *DeadReckoner {
	return &DeadReckoner{t: t0, pose: pose, speed: speed, init: true}
}

// Reset re-anchors the reckoner (e.g. to the latest trusted EKF estimate).
func (d *DeadReckoner) Reset(t float64, pose geom.Pose, speed float64) {
	d.t, d.pose, d.speed, d.init = t, pose, speed, true
}

// StepIMU advances the pose using an IMU reading.
func (d *DeadReckoner) StepIMU(r sensors.IMUReading) {
	if !d.init || !r.Valid || r.T <= d.t {
		return
	}
	dt := r.T - d.t
	d.t = r.T
	d.yawRate = r.YawRate
	sin, cos := geom.Sincos(d.pose.Heading + r.YawRate*dt/2)
	d.pose.Pos = d.pose.Pos.Add(geom.V(cos, sin).Scale(d.speed * dt))
	d.pose.Heading = geom.NormalizeAngle(d.pose.Heading + r.YawRate*dt)
	d.speed = math.Max(0, d.speed+r.Accel*dt)
}

// ObserveOdom snaps the speed to a wheel-odometry reading.
func (d *DeadReckoner) ObserveOdom(r sensors.OdomReading) {
	if r.Valid {
		d.speed = r.Speed
	}
}

// Estimate returns the dead-reckoned estimate.
func (d *DeadReckoner) Estimate() Estimate {
	return Estimate{T: d.t, Pose: d.pose, Speed: d.speed, YawRate: d.yawRate, PosStdDev: math.Inf(1)}
}
