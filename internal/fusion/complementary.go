package fusion

import (
	"math"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// Localizer is the estimation interface the simulation engine drives: IMU
// prediction, odometry and GNSS updates, and a fused estimate. The EKF is
// the reference implementation; Complementary is the lightweight
// alternative many low-cost platforms actually ship.
type Localizer interface {
	// PredictIMU propagates the estimate with an inertial reading.
	PredictIMU(r sensors.IMUReading)
	// UpdateOdom fuses a wheel-speed reading.
	UpdateOdom(r sensors.OdomReading)
	// UpdateGNSS fuses a position fix, returning the consistency statistic
	// (χ² NIS where available) and whether the fix was accepted.
	UpdateGNSS(fix sensors.GNSSFix) (nis float64, accepted bool)
	// Estimate returns the current fused estimate.
	Estimate() Estimate
	// LastNIS returns the most recent GNSS consistency statistic and its
	// acceptance; implementations without an innovation model return
	// (0, true) and the A10 assertion stays inapplicable.
	LastNIS() (nis float64, accepted bool)
	// RejectStreak returns consecutive GNSS rejections (0 where gating is
	// unsupported).
	RejectStreak() int
}

// Complementary is a fixed-gain complementary filter: dead reckoning from
// gyro + odometry, pulled toward each GNSS fix by constant blend gains. It
// has no covariance, no innovation statistic and no gate — the trade-off
// the fusion-ablation experiment (X5) quantifies.
type Complementary struct {
	t       float64
	pose    geom.Pose
	speed   float64
	yawRate float64

	// fixHist is the ~1 s course baseline: heading corrections derived
	// from a single-period chord would be noise-dominated.
	fixHist []stampedFix
}

// Per-fix blend factors toward the GNSS position and the chord course.
const (
	posGain     = 0.35
	headingGain = 0.1
)

type stampedFix struct {
	t float64
	p geom.Vec2
}

// NewComplementary starts the filter at a pose and speed.
func NewComplementary(t0 float64, pose geom.Pose, speed float64) *Complementary {
	return &Complementary{t: t0, pose: pose, speed: speed}
}

// PredictIMU implements Localizer.
func (c *Complementary) PredictIMU(r sensors.IMUReading) {
	if !r.Valid || r.T <= c.t {
		return
	}
	dt := r.T - c.t
	c.t = r.T
	c.yawRate = r.YawRate
	sin, cos := geom.Sincos(c.pose.Heading + r.YawRate*dt/2)
	c.pose.Pos = c.pose.Pos.Add(geom.V(cos, sin).Scale(c.speed * dt))
	c.pose.Heading = geom.NormalizeAngle(c.pose.Heading + r.YawRate*dt)
}

// UpdateOdom implements Localizer.
func (c *Complementary) UpdateOdom(r sensors.OdomReading) {
	if r.Valid {
		c.speed = r.Speed
	}
}

// UpdateGNSS implements Localizer: blend toward the fix, and nudge the
// heading toward the course implied by consecutive fixes while moving.
func (c *Complementary) UpdateGNSS(fix sensors.GNSSFix) (float64, bool) {
	if !fix.Valid {
		return 0, false
	}
	c.pose.Pos = c.pose.Pos.Lerp(fix.Pos, posGain)
	c.fixHist = append(c.fixHist, stampedFix{t: fix.T, p: fix.Pos})
	for len(c.fixHist) > 1 && fix.T-c.fixHist[0].t > 1.05 {
		c.fixHist = c.fixHist[1:]
	}
	// The chord course lags the instantaneous heading by ~ω·baseline/2, so
	// heading corrections only apply in near-straight motion; through
	// corners the gyro-integrated heading carries on its own.
	if oldest := c.fixHist[0]; fix.T-oldest.t > 0.5 && math.Abs(c.yawRate) < 0.08 {
		d := fix.Pos.Sub(oldest.p)
		dt := fix.T - oldest.t
		if d.Norm()/dt > 1 { // course defined only in motion
			course := d.Angle()
			c.pose.Heading = geom.NormalizeAngle(
				c.pose.Heading + geom.AngleDiff(course, c.pose.Heading)*headingGain)
		}
	}
	return 0, true
}

// Estimate implements Localizer. PosStdDev is +Inf: the filter keeps no
// covariance, so it has no position uncertainty to report.
func (c *Complementary) Estimate() Estimate {
	return Estimate{T: c.t, Pose: c.pose, Speed: c.speed, YawRate: c.yawRate, PosStdDev: math.Inf(1)}
}

// LastNIS implements Localizer: no innovation model.
func (c *Complementary) LastNIS() (float64, bool) { return 0, true }

// RejectStreak implements Localizer: no gate.
func (c *Complementary) RejectStreak() int { return 0 }

var (
	_ Localizer = (*EKF)(nil)
	_ Localizer = (*Complementary)(nil)
)
