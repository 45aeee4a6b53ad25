// Package sensors models the perception inputs of the control stack: GNSS
// position fixes, IMU yaw-rate/heading, and wheel odometry. Each sensor has
// a sample rate, delivery latency, and a noise model (white noise plus a
// slowly-walking bias), all driven by a deterministic seeded RNG so every
// simulation run is reproducible. These models substitute for the physical
// GNSS/IMU/odometer units of the original study's shuttle; they expose the
// same attack surface (position, heading and speed channels).
package sensors

import (
	"math"
	"math/rand"

	"adassure/internal/geom"
	"adassure/internal/vehicle"
)

// GNSSFix is one GNSS measurement as delivered to the fusion stack.
type GNSSFix struct {
	T      float64   // delivery time, s
	Pos    geom.Vec2 // measured position, m
	Course float64   // course over ground, rad (valid only when moving)
	Speed  float64   // speed over ground, m/s
	Valid  bool      // false models a dropout / no-fix epoch
}

// IMUReading is one inertial measurement.
type IMUReading struct {
	T       float64
	YawRate float64 // rad/s
	Accel   float64 // longitudinal acceleration, m/s²
	Heading float64 // integrated/magnetic heading, rad
	Valid   bool
}

// OdomReading is one wheel-odometry measurement.
type OdomReading struct {
	T     float64
	Speed float64 // m/s
	Valid bool
}

// sampler implements rate + latency bookkeeping shared by the sensors.
type sampler struct {
	period  float64
	latency float64
	nextDue float64
}

// newSampler schedules samples at rate Hz, each delivered latency seconds
// after it is taken.
func newSampler(rate, latency float64) sampler {
	return sampler{period: 1 / rate, latency: latency}
}

// due reports whether a new sample should be taken at time t and advances
// the schedule. Multiple periods elapsed in one call yield a single sample
// (the engine steps faster than any sensor, so this does not drop data).
func (s *sampler) due(t float64) bool {
	if t+1e-12 < s.nextDue {
		return false
	}
	// Advance past t to keep phase without accumulating error. The epsilon
	// in the due check means t may sit just below nextDue, in which case the
	// floor would compute 0 periods; always advance at least one.
	n := math.Floor((t-s.nextDue)/s.period) + 1
	if n < 1 {
		n = 1
	}
	s.nextDue += n * s.period
	return true
}

// noise is white Gaussian noise plus a first-order random-walk bias,
// the standard error model for consumer GNSS/IMU units.
type noise struct {
	rng      *rand.Rand
	stddev   float64
	bias     float64
	biasWalk float64 // per-sample bias random-walk stddev
	biasMax  float64
}

func (n *noise) next() float64 {
	if n.biasWalk > 0 {
		n.bias += n.rng.NormFloat64() * n.biasWalk
		n.bias = geom.Clamp(n.bias, -n.biasMax, n.biasMax)
	}
	return n.bias + n.rng.NormFloat64()*n.stddev
}

// The GNSS receiver's fixed characteristics: a consumer-grade unit with a
// slowly-walking position bias.
const (
	gnssRate        = 10    // Hz
	gnssLatency     = 0.05  // s
	gnssPosStdDev   = 0.15  // m, per-axis white noise
	gnssPosBiasWalk = 0.002 // m per sample bias walk
	gnssPosBiasMax  = 0.5   // m bias saturation
	gnssSpeedStdDev = 0.05  // m/s
)

// GNSS is a GNSS receiver model. Not safe for concurrent use.
type GNSS struct {
	s       sampler
	nx, ny  noise
	nv      noise
	pending []GNSSFix // latency queue, ordered by delivery time
	out     []GNSSFix // reused delivery buffer returned by Poll
}

// NewGNSS builds a GNSS model with the given seed.
func NewGNSS(seed int64) *GNSS {
	rng := rand.New(rand.NewSource(seed))
	return &GNSS{
		s:  newSampler(gnssRate, gnssLatency),
		nx: noise{rng: rand.New(rand.NewSource(rng.Int63())), stddev: gnssPosStdDev, biasWalk: gnssPosBiasWalk, biasMax: gnssPosBiasMax},
		ny: noise{rng: rand.New(rand.NewSource(rng.Int63())), stddev: gnssPosStdDev, biasWalk: gnssPosBiasWalk, biasMax: gnssPosBiasMax},
		nv: noise{rng: rand.New(rand.NewSource(rng.Int63())), stddev: gnssSpeedStdDev},
	}
}

// Poll observes the true state at time t. It returns any fixes whose
// delivery latency has elapsed by t, in delivery order. The returned slice
// is a view into a buffer owned by the sensor and is only valid until the
// next Poll; callers that retain fixes must copy them.
func (g *GNSS) Poll(truth vehicle.State, t float64) []GNSSFix {
	if g.s.due(t) {
		fix := GNSSFix{
			T:      t + g.s.latency,
			Pos:    geom.V(truth.X+g.nx.next(), truth.Y+g.ny.next()),
			Course: truth.Heading, // course follows heading in this no-slip substrate
			Speed:  math.Max(0, truth.Speed+g.nv.next()),
			Valid:  true,
		}
		g.pending = append(g.pending, fix)
	}
	g.out = drainDue(&g.pending, g.out, t, func(f GNSSFix) float64 { return f.T })
	return g.out
}

// drainDue moves readings with delivery time ≤ t from the queue (kept
// ordered by delivery time) into out, reusing out's backing array. The
// remainder of the queue is compacted to the front so both slices keep
// their capacity forever: after warm-up the sensor delivery path performs
// no heap allocation.
func drainDue[T any](q *[]T, out []T, t float64, when func(T) float64) []T {
	out = out[:0]
	i := 0
	for ; i < len(*q) && when((*q)[i]) <= t+1e-12; i++ {
		out = append(out, (*q)[i])
	}
	if i > 0 {
		n := copy(*q, (*q)[i:])
		*q = (*q)[:n]
	}
	return out
}

// The IMU's fixed characteristics.
const (
	imuRate           = 100   // Hz
	imuLatency        = 0.005 // s
	imuYawRateStdDev  = 0.01  // rad/s
	imuAccelStdDev    = 0.05  // m/s²
	imuHeadingStdDev  = 0.01  // rad
	imuHeadingDriftRW = 1e-5  // rad per sample heading bias walk
	imuHeadingBiasMax = 0.2   // rad heading bias saturation
)

// IMU is an inertial measurement unit model with an internally integrated
// heading channel (gyro-integrated, with drift), as AV stacks commonly log.
type IMU struct {
	s       sampler
	nr      noise
	na      noise
	nh      noise
	pending []IMUReading
	out     []IMUReading // reused delivery buffer returned by Poll
}

// NewIMU builds an IMU model with the given seed.
func NewIMU(seed int64) *IMU {
	rng := rand.New(rand.NewSource(seed))
	return &IMU{
		s:  newSampler(imuRate, imuLatency),
		nr: noise{rng: rand.New(rand.NewSource(rng.Int63())), stddev: imuYawRateStdDev},
		na: noise{rng: rand.New(rand.NewSource(rng.Int63())), stddev: imuAccelStdDev},
		nh: noise{rng: rand.New(rand.NewSource(rng.Int63())), stddev: imuHeadingStdDev, biasWalk: imuHeadingDriftRW, biasMax: imuHeadingBiasMax},
	}
}

// Poll observes the true state at time t and returns readings due by t.
// The returned slice is a view into a buffer owned by the sensor and is
// only valid until the next Poll.
func (m *IMU) Poll(truth vehicle.State, t float64) []IMUReading {
	if m.s.due(t) {
		r := IMUReading{
			T:       t + m.s.latency,
			YawRate: truth.YawRate + m.nr.next(),
			Accel:   truth.Accel + m.na.next(),
			Heading: geom.NormalizeAngle(truth.Heading + m.nh.next()),
			Valid:   true,
		}
		m.pending = append(m.pending, r)
	}
	m.out = drainDue(&m.pending, m.out, t, func(r IMUReading) float64 { return r.T })
	return m.out
}

// The wheel odometer's fixed characteristics.
const (
	odomRate        = 50   // Hz
	odomLatency     = 0.01 // s
	odomSpeedStdDev = 0.02 // m/s
)

// Odometer is a wheel-speed sensor model.
type Odometer struct {
	s       sampler
	nv      noise
	pending []OdomReading
	out     []OdomReading // reused delivery buffer returned by Poll
}

// NewOdometer builds an odometry model with the given seed.
func NewOdometer(seed int64) *Odometer {
	return &Odometer{
		s:  newSampler(odomRate, odomLatency),
		nv: noise{rng: rand.New(rand.NewSource(seed)), stddev: odomSpeedStdDev},
	}
}

// Poll observes the true state at time t and returns readings due by t.
// The returned slice is a view into a buffer owned by the sensor and is
// only valid until the next Poll.
func (o *Odometer) Poll(truth vehicle.State, t float64) []OdomReading {
	if o.s.due(t) {
		r := OdomReading{
			T:     t + o.s.latency,
			Speed: math.Max(0, truth.Speed+o.nv.next()),
			Valid: true,
		}
		o.pending = append(o.pending, r)
	}
	o.out = drainDue(&o.pending, o.out, t, func(r OdomReading) float64 { return r.T })
	return o.out
}
