// Package core is ADAssure's primary contribution: a runtime-assertion
// framework for autonomous-driving control stacks. It defines the signal
// frame sampled every control step, a small assertion DSL (bound, rate,
// consistency and window predicates with k-of-n debouncing), the built-in
// assertion catalog A1–A15, and the monitor engine that evaluates the
// catalog online and emits violations with attached evidence.
//
// The methodology: run a scenario with the Monitor attached, collect the
// violation record, feed it to the diagnosis engine (package diagnosis) to
// rank root causes, fix the controller or fusion configuration, and re-run
// to confirm the violations clear.
package core

import (
	"encoding/json"
	"math"

	"adassure/internal/trace"
	"adassure/internal/vehicle"
)

// Frame is one control-period sample of every signal the assertion catalog
// ranges over. The simulation engine (or, on a real platform, the logging
// bridge) fills one Frame per control step.
type Frame struct {
	// T is the frame timestamp in seconds; Dt the control period.
	T, Dt float64

	// Localization estimate (what the controller believes).
	EstX, EstY   float64
	EstHeading   float64
	EstSpeed     float64
	EstYawRate   float64
	EstPosStdDev StdDev

	// Latest GNSS fix as delivered (post-attack), and its age.
	GNSSX, GNSSY float64
	GNSSSpeed    float64
	GNSSCourse   float64
	GNSSAge      float64
	GNSSValid    bool

	// Latest IMU reading and its age.
	IMUHeading float64
	IMUYawRate float64
	IMUAccel   float64
	IMUAge     float64

	// Latest wheel-odometry reading and its age.
	OdomSpeed float64
	OdomAge   float64

	// Controller output this step.
	CmdSteer float64
	CmdAccel float64

	// Reference-tracking quantities computed from the estimate.
	RefS        float64 // arc position of the projection
	CTE         float64 // signed cross-track error (estimate vs path)
	HeadingErr  float64 // estimate heading − path heading
	Curvature   float64 // path curvature at the projection
	TargetSpeed float64
	Progress    float64 // cumulative route progress, m
	// CurvAheadMin/Max bound the path curvature over the window the
	// controller is reacting to (slightly behind to one lookahead ahead of
	// the projection); assertion A6 checks steering against this band.
	CurvAheadMin, CurvAheadMax float64

	// Fusion innovation statistics (assertion A10), and the guard's state.
	NIS          float64
	NISFresh     bool // true if a GNSS update was attempted this step
	Fallback     bool // the guard localizes by dead reckoning this step
	RejectStreak int

	// Ground truth, available in simulation (and in instrumented test-track
	// runs). Online assertions must not read these; the offline assertion
	// A12 and the metrics layer do.
	TrueX, TrueY float64
	TrueHeading  float64
	TrueSpeed    float64
	TrueCTE      float64
}

// StdDev is a 1-σ uncertainty. +Inf means there is no estimate: the dead
// reckoner and the complementary filter keep no position covariance. JSON
// has no literal for +Inf, so StdDev encodes a non-finite value as null
// and decodes null as +Inf. Every frame encoder (forensic bundles, service
// responses, stream NDJSON, the offline dataset) goes through this one
// encoding, so a frame without a position estimate encodes and round-trips.
type StdDev float64

// MarshalJSON implements json.Marshaler.
func (s StdDev) MarshalJSON() ([]byte, error) {
	if v := float64(s); !math.IsNaN(v) && !math.IsInf(v, 0) {
		return json.Marshal(v)
	}
	return []byte("null"), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *StdDev) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*s = StdDev(math.Inf(1))
		return nil
	}
	return json.Unmarshal(b, (*float64)(s))
}

// Limits carries the vehicle envelope the catalog's thresholds are scaled
// by, so assertions transfer between platforms without retuning.
type Limits struct {
	MaxSpeed     float64 // m/s
	MaxAccel     float64 // m/s², forward command envelope
	MaxBrake     float64 // m/s², braking command envelope (magnitude)
	MaxLatAccel  float64 // m/s²
	MaxJerk      float64 // m/s³
	MaxSteer     float64 // rad
	MaxSteerRate float64 // rad/s
	Wheelbase    float64 // m
}

// DefaultLimits derives assertion limits from the vehicle envelope.
func DefaultLimits(p vehicle.Params) Limits {
	return Limits{
		MaxSpeed:     p.MaxSpeed,
		MaxAccel:     p.MaxAccel,
		MaxBrake:     p.MaxBrake,
		MaxLatAccel:  p.MaxLatAccel,
		MaxJerk:      p.MaxJerk,
		MaxSteer:     p.MaxSteer,
		MaxSteerRate: p.MaxSteerRate,
		Wheelbase:    p.Wheelbase,
	}
}

// Finite reports whether the frame's core estimate signals are finite.
// Monitor.Step skips a non-finite frame silently: it only counts it (the
// skipped total of Monitor.Frames and the monitor.frames_skipped counter);
// no assertion sees it and no violation or diagnostic is raised. ROADMAP
// item 6 plans a typed violation for it.
func (f Frame) Finite() bool {
	for _, v := range []float64{f.T, f.EstX, f.EstY, f.EstHeading, f.EstSpeed, f.CmdSteer, f.CmdAccel} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// signalNames are the columns of the signal trace, in column (and hence
// CSV) order; SignalTrace fills them in the same order.
var signalNames = [...]string{
	"true_x", "true_y", "est_x", "est_y", "gnss_x", "gnss_y", "cte_true", "cte_est",
	"speed", "target_speed", "steer", "accel_cmd", "nis", "heading_err",
	"est_heading", "imu_heading", "curvature", "progress", "fallback",
}

// SignalTrace projects recorded frames, in time order, onto the run's
// 19-column signal trace, one sample per frame and column. A mutated
// controller may emit non-finite commands and the trace stores finite
// samples only, so the command columns (steer and accel_cmd) skip such
// samples. It panics on frames out of time order or with a non-finite T,
// which no run records.
func SignalTrace(frames []Frame) *trace.Trace {
	tr := trace.New()
	tr.Reserve(len(frames))
	var cols [len(signalNames)]*trace.Column
	for i, name := range signalNames {
		cols[i] = tr.Column(name)
	}
	for i := range frames {
		f := &frames[i]
		fallback := 0.0
		if f.Fallback {
			fallback = 1
		}
		v := [len(signalNames)]float64{f.TrueX, f.TrueY, f.EstX, f.EstY, f.GNSSX, f.GNSSY,
			f.TrueCTE, f.CTE, f.TrueSpeed, f.TargetSpeed, f.CmdSteer, f.CmdAccel, f.NIS,
			f.HeadingErr, f.EstHeading, f.IMUHeading, f.Curvature, f.Progress, fallback}
		for j, c := range cols {
			if (j == 10 || j == 11) && (math.IsNaN(v[j]) || math.IsInf(v[j], 0)) {
				continue
			}
			c.MustAppend(f.T, v[j])
		}
	}
	return tr
}
