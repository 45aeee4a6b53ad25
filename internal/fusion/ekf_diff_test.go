package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// reading is one sensor delivery to a filter: an IMU predict, a GNSS
// update or an odometry update, by kind.
type reading struct {
	kind byte // 'i', 'g' or 'o'
	imu  sensors.IMUReading
	gnss sensors.GNSSFix
	odom sensors.OdomReading
}

func (r reading) String() string {
	switch r.kind {
	case 'i':
		return fmt.Sprintf("imu%+v", r.imu)
	case 'g':
		return fmt.Sprintf("gnss%+v", r.gnss)
	}
	return fmt.Sprintf("odom%+v", r.odom)
}

// applyReading feeds r to f and reports whether the filter panicked (the
// only panic is Inv's singular innovation covariance).
func applyReading(f interface {
	PredictIMU(sensors.IMUReading)
	UpdateGNSS(sensors.GNSSFix) (float64, bool)
	UpdateOdom(sensors.OdomReading)
}, r reading) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	switch r.kind {
	case 'i':
		f.PredictIMU(r.imu)
	case 'g':
		f.UpdateGNSS(r.gnss)
	default:
		f.UpdateOdom(r.odom)
	}
	return false
}

// sameBits is bit equality, except that any NaN matches any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// diffEKF names the first output where got and want differ, or returns "".
func diffEKF(got *EKF, want *refEKF) string {
	ge, we := got.Estimate(), want.Estimate()
	gn, ga := got.LastNIS()
	for _, c := range []struct {
		name   string
		g, w   float64
		gb, wb bool
	}{
		{name: "T", g: ge.T, w: we.T},
		{name: "X", g: ge.Pose.Pos.X, w: we.Pose.Pos.X},
		{name: "Y", g: ge.Pose.Pos.Y, w: we.Pose.Pos.Y},
		{name: "Heading", g: ge.Pose.Heading, w: we.Pose.Heading},
		{name: "Speed", g: ge.Speed, w: we.Speed},
		{name: "YawRate", g: ge.YawRate, w: we.YawRate},
		{name: "PosStdDev", g: ge.PosStdDev, w: we.PosStdDev},
		{name: "LastNIS", g: gn, w: want.lastNIS, gb: ga, wb: want.lastAccepted},
		{name: "RejectStreak", g: float64(got.RejectStreak()), w: float64(want.rejectStreak)},
	} {
		if !sameBits(c.g, c.w) || c.gb != c.wb {
			return fmt.Sprintf("%s = %v (%v), reference %v (%v)", c.name, c.g, c.gb, c.w, c.wb)
		}
	}
	p := got.Covariance()
	for i := range p {
		if !sameBits(p[i], want.p.a[i]) {
			return fmt.Sprintf("Covariance[%d] = %v, reference %v", i, p[i], want.p.a[i])
		}
	}
	return ""
}

// checkAgainstReference runs the stream through the fixed-array filter and
// the reference and fails at the first reading after which any output
// differs in its bits. It returns the filter.
func checkAgainstReference(t *testing.T, gate float64, start geom.Pose, speed float64, stream []reading) *EKF {
	t.Helper()
	got, want := NewEKF(gate, 0, start, speed), newRefEKF(gate, 0, start, speed)
	if d := diffEKF(got, want); d != "" {
		t.Fatalf("after construction: %s", d)
	}
	for i, r := range stream {
		gp, wp := applyReading(got, r), applyReading(want, r)
		if gp != wp {
			t.Fatalf("reading %d %v: panicked %v, reference %v", i, r, gp, wp)
		}
		if d := diffEKF(got, want); d != "" {
			t.Fatalf("reading %d %v: %s", i, r, d)
		}
		if gp {
			return got
		}
	}
	return got
}

// synthStream drives a vehicle at speed v and yaw rate yaw for dur seconds:
// 100 Hz IMU, 50 Hz odometry and 10 Hz GNSS with noise, a GNSS offset from
// spoofT on, and, with junk, invalid and out-of-order readings mixed in.
func synthStream(seed int64, dur, v, yaw float64, spoof geom.Vec2, spoofT float64, junk bool) []reading {
	rng := rand.New(rand.NewSource(seed))
	var out []reading
	pos, th := geom.Vec2{}, 0.0
	for step := 1; float64(step)*0.01 <= dur; step++ {
		t := float64(step) * 0.01
		th += yaw * 0.01
		pos = pos.Add(geom.V(math.Cos(th), math.Sin(th)).Scale(v * 0.01))
		accel := 0.0
		if t > dur/2 {
			accel = -1.5 // brake through zero so the speed clamp engages
		}
		out = append(out, reading{kind: 'i', imu: sensors.IMUReading{T: t, YawRate: yaw + rng.NormFloat64()*0.005, Accel: accel, Valid: true}})
		if step%2 == 0 {
			out = append(out, reading{kind: 'o', odom: sensors.OdomReading{T: t, Speed: math.Max(0, v+rng.NormFloat64()*0.02), Valid: true}})
		}
		if step%10 == 0 {
			p := pos.Add(geom.V(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15))
			if spoofT > 0 && t >= spoofT {
				p = p.Add(spoof)
			}
			out = append(out, reading{kind: 'g', gnss: sensors.GNSSFix{T: t, Pos: p, Valid: true}})
		}
		if junk && rng.Intn(20) == 0 {
			out = append(out,
				reading{kind: 'i', imu: sensors.IMUReading{T: t - 0.5, YawRate: 3, Valid: true}},
				reading{kind: 'i', imu: sensors.IMUReading{T: t + 1, Valid: false}},
				reading{kind: 'g', gnss: sensors.GNSSFix{T: t, Pos: geom.V(1e3, -1e3), Valid: false}},
				reading{kind: 'o', odom: sensors.OdomReading{T: t, Speed: 99}})
		}
		if t > dur/2 {
			v = math.Max(0, v+accel*0.01)
		}
	}
	return out
}

// TestEKFMatchesReference: on synthetic streams — straight and turning,
// clean and spoofed, gated and ungated, with invalid and out-of-order
// readings, standing still, braking through zero, and poisoned by a
// non-finite IMU reading — every output of the fixed-array filter equals
// the reference's bit for bit after every reading.
func TestEKFMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name    string
		seed    int64
		speed   float64
		yaw     float64
		spoof   geom.Vec2
		spoofT  float64
		junk    bool
		gate    float64
		heading float64
		// poison, when valid, is delivered a third of the way in, 5 ms
		// after the IMU reading before it unless it has a timestamp; the
		// covariance must be non-finite at the end, so the updates ran the
		// general kernels from then on.
		poison sensors.IMUReading
	}{
		{name: "straight", seed: 1, speed: 6},
		{name: "turn", seed: 2, speed: 6, yaw: 0.2, heading: 3},
		{name: "tight-turn-wraps-heading", seed: 3, speed: 6, yaw: -0.9, heading: -3.1},
		{name: "spoof-ungated", seed: 4, speed: 6, spoof: geom.V(0, 30), spoofT: 8},
		{name: "spoof-gated", seed: 4, speed: 6, spoof: geom.V(0, 30), spoofT: 8, gate: DefaultGate},
		{name: "drift-gated-turn", seed: 5, speed: 6, yaw: 0.15, spoof: geom.V(4, -3), spoofT: 5, gate: DefaultGate},
		{name: "junk-ungated", seed: 6, speed: 6, yaw: 0.1, junk: true},
		{name: "junk-gated", seed: 7, speed: 6, yaw: -0.1, junk: true, spoof: geom.V(10, 0), spoofT: 6, gate: DefaultGate},
		// At zero speed the Jacobian's velocity terms are ±0.
		{name: "zero-speed", seed: 8, yaw: 0.1, heading: 2},
		{name: "brake-through-zero", seed: 9, speed: 0.8, yaw: -0.2, gate: DefaultGate},
		{name: "nan-yaw-rate-poisons-covariance", seed: 10, speed: 6, yaw: 0.1,
			poison: sensors.IMUReading{YawRate: math.NaN(), Valid: true}},
		{name: "inf-yaw-rate-poisons-covariance", seed: 11, speed: 6, gate: DefaultGate,
			poison: sensors.IMUReading{YawRate: math.Inf(-1), Valid: true}},
		{name: "inf-timestamp-poisons-covariance", seed: 12, speed: 6, yaw: 0.1,
			poison: sensors.IMUReading{T: math.Inf(1), Valid: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			stream := synthStream(c.seed, 20, c.speed, c.yaw, c.spoof, c.spoofT, c.junk)
			if c.poison.Valid {
				at := len(stream) / 3
				for i := at - 1; c.poison.T == 0; i-- {
					if stream[i].kind == 'i' {
						c.poison.T = stream[i].imu.T + 0.005
					}
				}
				stream = append(stream[:at:at], append([]reading{{kind: 'i', imu: c.poison}}, stream[at:]...)...)
			}
			got := checkAgainstReference(t, c.gate, geom.NewPose(3, -2, c.heading), c.speed, stream)
			if p := got.Covariance(); c.poison.Valid == finite(p[:]) {
				t.Errorf("covariance finite = %v at the end, want %v: %v", finite(p[:]), !c.poison.Valid, p)
			}
		})
	}
}

// FuzzEKFDifferential checks the fixed-array filter against the reference
// over fuzzed reading sequences. Each program byte delivers one reading:
// bits 0-1 pick the kind (IMU twice as often), bit 2 marks it invalid,
// bit 3 substitutes the fuzzed position, speed, acceleration and yaw rate
// for nominal values, bit 4 substitutes the fuzzed timestamp (NaN, ±Inf
// and the past included) for the next 10 ms tick, and bits 5-7 scale a
// GNSS offset or a yaw-rate step.
func FuzzEKFDifferential(f *testing.F) {
	f.Add(0.0, []byte{0, 2, 1, 3, 0, 2, 1}, 1.0, 2.0, 5.0, 0.5, 0.1, 0.5)
	f.Add(DefaultGate, []byte{0, 1, 0xe1, 0xe1, 0xe1, 0x21, 2, 0}, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0)
	f.Add(DefaultGate, []byte{0, 9, 0x13, 2, 1}, math.NaN(), 0.0, 5.0, 0.0, 0.0, -1.0)
	f.Fuzz(func(t *testing.T, gate float64, prog []byte, px, py, speed, accel, yaw, ts float64) {
		if len(prog) > 256 {
			t.Skip("long programs add nothing but time")
		}
		var stream []reading
		tick := 0.0
		for i, b := range prog {
			special := b&8 != 0
			tick += 0.01
			at := tick
			if b&16 != 0 {
				at = ts
			}
			scale := float64(b >> 5)
			r := reading{}
			switch b & 3 {
			case 1:
				p := geom.V(5*tick, 4*scale)
				if special {
					p = geom.V(px, py)
				}
				r = reading{kind: 'g', gnss: sensors.GNSSFix{T: at, Pos: p, Valid: b&4 == 0}}
			case 2:
				v := 5 + 0.01*float64(i%7)
				if special {
					v = speed
				}
				r = reading{kind: 'o', odom: sensors.OdomReading{T: at, Speed: v, Valid: b&4 == 0}}
			default:
				w, a := 0.05*(scale-4), 0.0
				if special {
					w, a = yaw, accel
				}
				r = reading{kind: 'i', imu: sensors.IMUReading{T: at, YawRate: w, Accel: a, Valid: b&4 == 0}}
			}
			stream = append(stream, r)
		}
		checkAgainstReference(t, gate, geom.NewPose(0, 0, 0.3), 5, stream)
	})
}

// TestEKFSeededCovarianceMatchesReference starts both filters from
// covariances no sensor stream reaches directly — signed zeros, an entry
// whose Kalman gain overflows, infinities outside the blocks the updates
// select, NaN — and checks every output bit for bit over a short stream of
// predicts and both updates. These are the operands on which the
// structured kernels must hand over to the general ones.
func TestEKFSeededCovarianceMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	for _, c := range []struct {
		name string
		p    [16]float64
	}{
		{"signed-zeros", [16]float64{1, negZero, negZero, negZero, negZero, 1, negZero, 0, negZero, negZero, 0.05, negZero, negZero, 0, negZero, 0.25}},
		{"overflowing-gain", [16]float64{0: 1e-3, 2: 1e308, 5: 1, 8: 1e308, 10: 0.05, 15: 0.25}},
		{"inf-outside-position-block", [16]float64{0: 1, 3: inf, 5: 1, 10: 0.05, 12: inf, 15: 0.25}},
		{"inf-outside-speed-entry", [16]float64{0: 1, 5: 1, 6: inf, 9: inf, 10: 0.05, 15: 0.25}},
		{"inf-speed-variance", [16]float64{0: 1, 5: 1, 10: 0.05, 15: inf}},
		{"nan-heading-variance", [16]float64{0: 1, 5: 1, 10: math.NaN(), 15: 0.25}},
	} {
		for _, first := range []byte{'i', 'g', 'o'} {
			t.Run(fmt.Sprintf("%s/%c", c.name, first), func(t *testing.T) {
				start := geom.NewPose(1, 2, 0.4)
				got, want := NewEKF(DefaultGate, 0, start, 3), newRefEKF(DefaultGate, 0, start, 3)
				got.p = c.p
				copy(want.p.a, c.p[:])
				stream := []reading{
					{kind: 'i', imu: sensors.IMUReading{T: 0.01, YawRate: 0.1, Accel: 0.5, Valid: true}},
					{kind: 'g', gnss: sensors.GNSSFix{T: 0.01, Pos: geom.V(1.2, 1.9), Valid: true}},
					{kind: 'o', odom: sensors.OdomReading{T: 0.01, Speed: 3.1, Valid: true}},
					{kind: 'i', imu: sensors.IMUReading{T: 0.02, YawRate: -0.1, Valid: true}},
					{kind: 'g', gnss: sensors.GNSSFix{T: 0.02, Pos: geom.V(1.3, 2.1), Valid: true}},
					{kind: 'o', odom: sensors.OdomReading{T: 0.02, Speed: 2.9, Valid: true}},
				}
				for i, r := range stream {
					if r.kind == first {
						stream = append(stream[i:], stream[:i]...)
						break
					}
				}
				for i, r := range stream {
					gp, wp := applyReading(got, r), applyReading(want, r)
					if gp != wp {
						t.Fatalf("reading %d %v: panicked %v, reference %v", i, r, gp, wp)
					}
					if d := diffEKF(got, want); d != "" {
						t.Fatalf("reading %d %v: %s", i, r, d)
					}
					if gp {
						return
					}
				}
			})
		}
	}
}
