package core

import (
	"fmt"
	"math"
	"sort"

	"adassure/internal/fusion"
	"adassure/internal/vehicle"
)

// CatalogConfig tunes the built-in assertion catalog.
type CatalogConfig struct {
	// Limits scales the thresholds to the platform envelope.
	Limits Limits
	// ThresholdScale multiplies every numeric threshold (1 = catalog
	// defaults). The sensitivity-ablation experiment sweeps it.
	ThresholdScale float64
	// Debounce overrides the per-assertion default policies when N > 0.
	Debounce Debounce
	// IncludeGroundTruth adds A12, which reads simulation ground truth and
	// is unavailable on a real platform without instrumentation.
	IncludeGroundTruth bool
}

func (c *CatalogConfig) defaults() {
	if c.ThresholdScale <= 0 {
		c.ThresholdScale = 1
	}
	if c.Limits.MaxSpeed <= 0 {
		c.Limits = DefaultLimits(vehicle.ShuttleParams())
	}
}

// The catalog's fixed tolerances, before ThresholdScale: the lane-keeping
// bound on cross-track error (m); the admissible GNSS-vs-IMU heading
// divergence (rad, covering course-chord lag plus IMU heading bias walk);
// the admissible GNSS-vs-odometry speed divergence (m/s); and the
// staleness bound on sensor delivery (s, covering several GNSS periods).
// A10's χ² gate is the fusion filter's own, fusion.DefaultGate.
//
// jumpNoise is A1's allowance for fix-to-fix position noise (m/s): two
// 10 Hz fixes with 0.15 m of noise per axis imply a speed that scatters by
// 2.1 m/s (1σ) around the true one, and a 70 s run checks about 700 fix
// pairs, so the allowance is about 3σ on top of the 1.5× speed envelope.
// An allowance of 2 m/s (under 1σ) raised A1 on 121 of 2000 clean 70 s
// runs (pure-pursuit, straight and urban-loop, seeds 1–1000).
const (
	cteBound     = 1.5
	headingTol   = 0.45
	speedTol     = 1.5
	maxSensorAge = 0.5
	jumpNoise    = 6.0
)

// freshGNSS reports whether a new fix was delivered within this frame's
// control period.
func freshGNSS(f *Frame) bool { return f.GNSSValid && f.GNSSAge <= f.Dt+1e-9 }

// NewCatalog instantiates the built-in assertions A1–A15 with the given
// configuration, each paired with its default debounce policy.
func NewCatalog(cfg CatalogConfig) []CatalogEntry {
	cfg.defaults()
	lim := cfg.Limits
	k := cfg.ThresholdScale
	deb := func(def Debounce) Debounce {
		if cfg.Debounce.N > 0 {
			return cfg.Debounce
		}
		return def
	}

	entries := []CatalogEntry{
		{A1PositionJump(lim, k), deb(Debounce{K: 1, N: 1})},
		{A2CrossTrack(lim, k), deb(Debounce{K: 4, N: 5})},
		{A3HeadingConsistency(lim, k), deb(Debounce{K: 3, N: 4})},
		{A4SpeedConsistency(lim, k), deb(Debounce{K: 3, N: 4})},
		{A5StaleSensor(lim, k), deb(Debounce{K: 2, N: 2})},
		{A6SteeringCurvature(lim, k), deb(Debounce{K: 5, N: 6})},
		{A7LateralAccel(lim, k), deb(Debounce{K: 3, N: 4})},
		{A8Jerk(lim, k), deb(Debounce{K: 3, N: 4})},
		{A9ProgressMonotone(lim, k), deb(Debounce{K: 1, N: 1})},
		{A10InnovationGate(lim, k), deb(Debounce{K: 2, N: 3})},
		{A11Oscillation(lim, k), deb(Debounce{K: 1, N: 1})},
		{A13HeadingReference(lim, k), deb(Debounce{K: 4, N: 5})},
		{A14ActuatorResponse(lim, k), deb(Debounce{K: 4, N: 5})},
		{A15LatticeConsistency(lim, k), deb(Debounce{K: 2, N: 3})},
	}
	if cfg.IncludeGroundTruth {
		entries = append(entries, CatalogEntry{A12SafetyEnvelope(lim, k), deb(Debounce{K: 3, N: 4})})
	}
	return entries
}

// CatalogEntry pairs an assertion with its default debounce policy.
type CatalogEntry struct {
	Assertion Assertion
	Debounce  Debounce
}

// NewCatalogMonitor builds a Monitor loaded with the configured catalog.
func NewCatalogMonitor(cfg CatalogConfig) *Monitor {
	m := NewMonitor()
	for _, e := range NewCatalog(cfg) {
		m.Add(e.Assertion, e.Debounce)
	}
	return m
}

// NewCatalogMonitorWith builds a Monitor loaded with the configured
// catalog, optionally restricted to an explicit assertion-ID subset (nil
// or empty loads everything). Assertions are added in catalog order so the
// evaluation order — and therefore the violation record — is independent
// of how the caller listed the IDs. IDs the config does not produce (e.g.
// "A12" without ground truth enabled) are an error rather than a silent
// no-op, and so is a NaN or infinite ThresholdScale, which no threshold
// can be scaled by.
func NewCatalogMonitorWith(cfg CatalogConfig, ids []string) (*Monitor, error) {
	if math.IsNaN(cfg.ThresholdScale) || math.IsInf(cfg.ThresholdScale, 0) {
		return nil, fmt.Errorf("core: threshold scale must be finite, got %v", cfg.ThresholdScale)
	}
	entries := NewCatalog(cfg)
	m := NewMonitor()
	if len(ids) == 0 {
		for _, e := range entries {
			m.Add(e.Assertion, e.Debounce)
		}
		return m, nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for _, e := range entries {
		if want[e.Assertion.ID()] {
			m.Add(e.Assertion, e.Debounce)
			delete(want, e.Assertion.ID())
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("core: unknown catalog assertion(s) %v", unknown)
	}
	return m, nil
}

// A1PositionJump asserts that consecutive GNSS fixes are kinematically
// reachable: the implied speed between fixes must not exceed the vehicle
// envelope plus the fix-noise allowance jumpNoise. Catches step spoofs and
// replay onsets.
func A1PositionJump(lim Limits, k float64) Assertion {
	maxImplied := (lim.MaxSpeed*1.5 + jumpNoise) * k
	var px, py, pt float64
	var has bool
	return NewAssertion("A1", "position-jump",
		fmt.Sprintf("implied GNSS speed between fixes <= %.1f m/s", maxImplied), Critical,
		func(f *Frame, o *Outcome) {
			if !freshGNSS(f) {
				o.Skip = true
				return
			}
			// Key on the fix's own timestamp, not the frame's: a fix can be
			// "fresh" on two consecutive control frames, and comparing it
			// against itself over half a period would double the implied
			// speed.
			tFix := f.T - f.GNSSAge
			if !has {
				px, py, pt, has = f.GNSSX, f.GNSSY, tFix, true
				o.Skip = true
				return
			}
			dt := tFix - pt
			if dt <= 1e-6 {
				o.Skip = true // same fix as last frame
				return
			}
			implied := math.Hypot(f.GNSSX-px, f.GNSSY-py) / dt
			px, py, pt = f.GNSSX, f.GNSSY, tFix
			o.Set(implied <= maxImplied, maxImplied-implied).
				And("implied_speed", implied).And("max", maxImplied)
		}, func() { has = false })
}

// A2CrossTrack asserts the estimated cross-track error stays inside the
// lane-keeping bound while the vehicle is in motion. Catches drift spoofs
// (the vehicle physically leaves the lane while believing otherwise, or
// vice versa) and controller tracking weaknesses.
func A2CrossTrack(lim Limits, k float64) Assertion {
	bound := cteBound * k
	return Bound("A2", "cross-track-bound",
		fmt.Sprintf("|cross-track error| <= %.2f m while moving", bound), Critical,
		func(f *Frame) (float64, bool) {
			if f.EstSpeed < 0.5 {
				return 0, false
			}
			return f.CTE, true
		}, -bound, bound)
}

// A3HeadingConsistency asserts the GNSS course over ground agrees with the
// IMU heading while moving. Catches position spoofs (the spoofed track's
// course diverges from inertial heading) and IMU bias faults.
func A3HeadingConsistency(lim Limits, k float64) Assertion {
	tol := headingTol * k
	return Consistency("A3", "heading-consistency",
		fmt.Sprintf("|GNSS course - IMU heading| <= %.2f rad while moving", tol), Warning,
		func(f *Frame) (float64, bool) {
			// Course over ground is a chord direction: during hard yaw it
			// legitimately lags the instantaneous heading by ~ω·baseline/2,
			// so the check only applies in near-straight motion at speed.
			if !freshGNSS(f) || f.EstSpeed < 2 || math.Abs(f.IMUYawRate) > 0.3 {
				return 0, false
			}
			return f.GNSSCourse, true
		},
		func(f *Frame) (float64, bool) {
			if f.IMUAge > maxSensorAge {
				return 0, false
			}
			return f.IMUHeading, true
		},
		angleDiff, tol)
}

// A4SpeedConsistency asserts GNSS-derived speed agrees with wheel odometry.
// Catches freezes (derived speed collapses to zero), replays and spoofs
// (derived speed inflates) and odometry scaling faults.
func A4SpeedConsistency(lim Limits, k float64) Assertion {
	tol := speedTol * k
	return Consistency("A4", "speed-consistency",
		fmt.Sprintf("|GNSS speed - odometry speed| <= %.2f m/s", tol), Warning,
		func(f *Frame) (float64, bool) {
			// The receiver-derived speed is a chord average over ~1 s; under
			// hard acceleration it legitimately lags the instantaneous wheel
			// speed by ~a/2, so the check applies in quasi-steady motion.
			if !freshGNSS(f) || math.Abs(f.IMUAccel) > 1.0 {
				return 0, false
			}
			return f.GNSSSpeed, true
		},
		func(f *Frame) (float64, bool) {
			if f.OdomAge > maxSensorAge {
				return 0, false
			}
			return f.OdomSpeed, true
		},
		nil, tol)
}

// A5StaleSensor asserts the GNSS channel keeps delivering: the age of the
// newest delivered fix must stay below the staleness bound. Catches
// dropouts/DoS and added delay.
func A5StaleSensor(lim Limits, k float64) Assertion {
	maxAge := maxSensorAge * k
	return Bound("A5", "stale-sensor",
		fmt.Sprintf("GNSS fix age <= %.2f s", maxAge), Warning,
		func(f *Frame) (float64, bool) { return f.GNSSAge, true },
		math.Inf(-1), maxAge)
}

// A6SteeringCurvature asserts the commanded steering stays consistent with
// the path geometry plus a correction proportional to the tracking errors.
// A large unexplained steering command indicates the controller is reacting
// to corrupted localization or has an internal defect.
func A6SteeringCurvature(lim Limits, k float64) Assertion {
	slack := 0.25 * k // rad of unexplained steering allowed
	return NewAssertion("A6", "steering-curvature",
		fmt.Sprintf("steer within geometric band of upcoming curvature + %.2f rad + error terms", slack), Warning,
		func(f *Frame, o *Outcome) {
			// Below ~1.5 m/s every geometric controller is legitimately
			// twitchy (spawn transients, Stanley's 1/v gain), so the check
			// applies only in motion.
			if f.EstSpeed < 1.5 {
				o.Skip = true
				return
			}
			// Geometric steering band implied by the curvature the vehicle
			// is in or about to enter (controllers legitimately anticipate
			// the upcoming arc).
			lo := math.Atan(f.CurvAheadMin * lim.Wheelbase)
			hi := math.Atan(f.CurvAheadMax * lim.Wheelbase)
			if lo > hi {
				lo, hi = hi, lo
			}
			// Corrections the tracking errors justify.
			allowance := slack + 0.6*math.Abs(f.CTE) + 0.8*math.Abs(f.HeadingErr)
			var dev float64
			switch {
			case f.CmdSteer < lo:
				dev = lo - f.CmdSteer
			case f.CmdSteer > hi:
				dev = f.CmdSteer - hi
			}
			o.Set(dev <= allowance, allowance-dev).
				And("deviation", dev).And("allowance", allowance).And("band_lo", lo).And("band_hi", hi)
		}, nil)
}

// A7LateralAccel asserts the realised lateral acceleration v·ω stays inside
// the comfort/safety envelope. Catches spoof-induced swerves and unsafe
// speed plans.
func A7LateralAccel(lim Limits, k float64) Assertion {
	// 1.7× the comfort envelope: the speed plan targets the envelope
	// itself, so realistic overshoot peaks ~1.5×; a spoof-induced swerve
	// at speed lands well above 2×.
	bound := lim.MaxLatAccel * 1.7 * k
	return Bound("A7", "lateral-accel",
		fmt.Sprintf("|v·yawrate| <= %.2f m/s²", bound), Critical,
		func(f *Frame) (float64, bool) {
			return f.EstSpeed * f.EstYawRate, true
		}, -bound, bound)
}

// A8Jerk asserts the commanded longitudinal jerk stays inside the comfort
// envelope, and the commanded acceleration inside the vehicle's command
// envelope [-MaxBrake, MaxAccel]. Catches oscillating/unstable
// longitudinal control and a longitudinal controller that has lost its
// output saturation.
func A8Jerk(lim Limits, k float64) Assertion {
	// 5× the comfort jerk: deep braking into a hairpin legitimately
	// produces short spikes of a few× the comfort value; a localization
	// jolt slams the whole accel envelope in one step and lands far above
	// this bound.
	bound := lim.MaxJerk * 5 * k
	desc := fmt.Sprintf("|d(accel)/dt| <= %.1f m/s³", bound)
	jerk := Rate("A8", "jerk-bound", desc, Warning,
		func(f *Frame) (float64, bool) { return f.CmdAccel, true },
		bound)
	// The envelope is the command interface's contract, which a pristine
	// controller meets exactly at saturation, so ThresholdScale does not
	// scale it: a tighter catalog would flag every full-throttle start.
	lo, hi := -lim.MaxBrake, lim.MaxAccel
	return NewAssertion("A8", "jerk-bound", desc, Warning, func(f *Frame, o *Outcome) {
		jerk.Eval(f, o)
		if a := f.CmdAccel; a < lo || a > hi {
			*o = Outcome{}
			o.Set(false, math.Min(a-lo, hi-a)).And("accel", a).And("lo", lo).And("hi", hi)
		}
	}, jerk.Reset)
}

// A9ProgressMonotone asserts route progress never jumps backward by more
// than the tolerance in a single step. Catches replays (projection snaps
// back) and teleporting spoofs.
func A9ProgressMonotone(lim Limits, k float64) Assertion {
	tol := 2.0 * k // metres of admissible regression (projection jitter)
	var prev float64
	var has bool
	return NewAssertion("A9", "progress-monotone",
		fmt.Sprintf("route progress regression <= %.1f m per step", tol), Critical,
		func(f *Frame, o *Outcome) {
			if !has {
				prev, has = f.Progress, true
				o.Skip = true
				return
			}
			drop := prev - f.Progress
			prev = f.Progress
			o.Set(drop <= tol, tol-drop).And("regression", drop).And("tol", tol)
		}, func() { has = false })
}

// A10InnovationGate asserts the fusion filter's GNSS innovation stays under
// the χ² gate. The catch-all consistency check: any measurement stream that
// disagrees with the filter's short-horizon prediction trips it.
func A10InnovationGate(lim Limits, k float64) Assertion {
	gate := fusion.DefaultGate * k
	return Bound("A10", "innovation-gate",
		fmt.Sprintf("GNSS NIS <= %.2f", gate), Warning,
		func(f *Frame) (float64, bool) {
			if !f.NISFresh {
				return 0, false
			}
			return f.NIS, true
		},
		math.Inf(-1), gate)
}

// A11Oscillation asserts the steering command does not change sign more
// than a bounded number of times within a sliding window — the instability
// signature of badly tuned lateral controllers at speed.
func A11Oscillation(lim Limits, k float64) Assertion {
	const window = 2.0
	maxChanges := int(math.Max(2, 10*k))
	var prevSteer float64
	var has bool
	return WindowCount("A11", "oscillation-bound",
		fmt.Sprintf("steering sign changes <= %d per %.0f s", maxChanges, window), Warning,
		func(f *Frame) (bool, bool) {
			if f.EstSpeed < 1 {
				return false, false
			}
			event := false
			if has && prevSteer*f.CmdSteer < 0 && math.Abs(f.CmdSteer-prevSteer) > 0.08 {
				event = true
			}
			prevSteer, has = f.CmdSteer, true
			return event, true
		}, window, maxChanges)
}

// A12SafetyEnvelope is the offline ground-truth assertion: the vehicle's
// true cross-track deviation must stay inside the physical safety corridor
// regardless of what the stack believes. Only evaluable in simulation or
// on instrumented test ranges.
func A12SafetyEnvelope(lim Limits, k float64) Assertion {
	bound := cteBound * 2.5 * k
	return Bound("A12", "safety-envelope",
		fmt.Sprintf("|true cross-track deviation| <= %.2f m", bound), Critical,
		func(f *Frame) (float64, bool) {
			if f.TrueSpeed < 0.5 {
				return 0, false
			}
			return f.TrueCTE, true
		}, -bound, bound)
}

// A13HeadingReference asserts that the fused heading stays consistent with
// the platform's independent heading reference (here the IMU's integrated
// heading channel; on a production vehicle, a dual-antenna GNSS compass or
// magnetometer). The fused heading is only legitimately rotated by the
// gyro, so a localization channel dragging the estimate sideways — the
// signature of a slow drift spoof, which the χ² gate can never see —
// accumulates a persistent divergence between the two. An exponential
// moving average (τ ≈ 3 s) separates the persistent divergence from
// per-sample noise.
func A13HeadingReference(lim Limits, k float64) Assertion {
	const tau = 3.0
	tol := 0.05 * k // rad of persistent divergence allowed
	ema := 0.0
	var lastT float64
	var has bool
	return NewAssertion("A13", "heading-reference",
		fmt.Sprintf("EMA|fused heading - IMU heading| <= %.3f rad", tol), Critical,
		func(f *Frame, o *Outcome) {
			if f.IMUAge > maxSensorAge {
				o.Skip = true
				return
			}
			d := angleDiff(f.EstHeading, f.IMUHeading)
			if !has {
				lastT, has = f.T, true
				ema = d
				o.Skip = true
				return
			}
			alpha := (f.T - lastT) / tau
			if alpha > 1 {
				alpha = 1
			}
			lastT = f.T
			ema += (d - ema) * alpha
			dev := math.Abs(ema)
			o.Set(dev <= tol, tol-dev).And("ema_divergence", ema).And("instant", d).And("tol", tol)
		}, func() { ema = 0; has = false })
}

// A14ActuatorResponse asserts that the vehicle's measured yaw response
// matches what the commanded steering should produce (kinematically,
// ω ≈ v·tan(δ)/L). A persistent residual means the actuation path is not
// executing the controller's command — a stuck or offset steering fault.
// An EMA (τ ≈ 2 s) absorbs the actuator's legitimate lag transients.
func A14ActuatorResponse(lim Limits, k float64) Assertion {
	const (
		tau    = 2.0  // residual EMA time constant, s
		actLag = 0.25 // modelled first-order actuator response, s
	)
	tol := 0.12 * k // rad/s of persistent yaw-rate residual allowed
	ema := 0.0
	filtSteer := 0.0
	var lastT float64
	var has bool
	// The lag's smoothing factor for the frame interval lagDt, recomputed
	// only when an interval differs from the last one (a NaN one always).
	lagDt, lagAlpha := math.NaN(), 0.0
	return NewAssertion("A14", "actuator-response",
		fmt.Sprintf("EMA|measured yaw - commanded yaw| <= %.2f rad/s", tol), Critical,
		func(f *Frame, o *Outcome) {
			if !has {
				lastT, has = f.T, true
				filtSteer = f.CmdSteer
				o.Skip = true
				return
			}
			dt := f.T - lastT
			lastT = f.T
			// The actuator follows the command with a first-order lag; the
			// expectation must model that, or every fast slew (corner
			// entry) produces a spurious transient residual.
			if dt != lagDt {
				lagDt, lagAlpha = dt, 1-math.Exp(-dt/actLag)
			}
			filtSteer += (f.CmdSteer - filtSteer) * lagAlpha
			if f.EstSpeed < 1.5 || f.IMUAge > maxSensorAge {
				o.Skip = true
				return
			}
			expected := f.EstSpeed * math.Tan(filtSteer) / lim.Wheelbase
			residual := f.IMUYawRate - expected
			alpha := dt / tau
			if alpha > 1 {
				alpha = 1
			}
			ema += (residual - ema) * alpha
			dev := math.Abs(ema)
			o.Set(dev <= tol, tol-dev).
				And("ema_residual", ema).And("expected_yaw", expected).And("measured_yaw", f.IMUYawRate).And("tol", tol)
		}, func() { ema = 0; filtSteer = 0; has = false })
}

// A15LatticeConsistency asserts that GNSS fixes do not land on a spatial
// lattice: the approximate greatest common divisor of the recent position
// deltas between consecutive fixes must stay below the grid floor. Real
// receiver noise is continuous, so the folded GCD of genuine fixes
// collapses toward the tolerance; a quantized feed (a truncated
// fixed-point conversion upstream) snaps every delta onto exact multiples
// of the grid pitch, which survives the fold no matter how far below the
// noise floor the pitch sits. This is the detector for the sub-noise
// quantization fault that evades every amplitude-based check — a 0.25 m
// grid is invisible to A1/A10 margins sized for metre-scale spoofs.
func A15LatticeConsistency(lim Limits, k float64) Assertion {
	const (
		window   = 16   // pooled x+y deltas retained
		minFill  = 12   // deltas required before judging
		eps      = 1e-6 // Euclid termination / float-fuzz tolerance
		minStep  = 1e-3 // deltas below this are "no motion on this axis"
		stallMin = 0.15 // expected axis motion above which a zero delta is a stall
		maxStall = 6    // stalled-axis observations per window that imply a coarse grid
	)
	minGrid := 0.02 * k
	var buf [window]float64  // recent nonzero per-axis deltas
	var stalls [window]uint8 // per-fix count of stalled axes (0..2)
	var n, next int          // delta ring fill / cursor
	var sn, snext int        // stall ring fill / cursor
	var px, py, pt float64
	var has bool
	return NewAssertion("A15", "gnss-lattice",
		fmt.Sprintf("GCD of consecutive GNSS position deltas < %.3f m (no quantization lattice)", minGrid), Warning,
		func(f *Frame, o *Outcome) {
			if !freshGNSS(f) {
				o.Skip = true
				return
			}
			tFix := f.T - f.GNSSAge
			if !has {
				px, py, pt, has = f.GNSSX, f.GNSSY, tFix, true
				o.Skip = true
				return
			}
			dtFix := tFix - pt
			if dtFix <= 1e-6 {
				o.Skip = true // same fix as last frame
				return
			}
			// Expected per-axis travel between fixes, from the fused state:
			// a near-zero delta despite commanded motion is a stalled axis —
			// the between-jumps phase of a coarse grid.
			sin, cos := math.Sincos(f.EstHeading)
			mx := math.Abs(cos) * f.EstSpeed * dtFix
			my := math.Abs(sin) * f.EstSpeed * dtFix
			dx, dy := math.Abs(f.GNSSX-px), math.Abs(f.GNSSY-py)
			px, py, pt = f.GNSSX, f.GNSSY, tFix
			var stalled uint8
			for _, a := range [2]struct{ d, m float64 }{{dx, mx}, {dy, my}} {
				if a.d < minStep {
					if a.m > stallMin {
						stalled++
					}
					continue
				}
				buf[next] = a.d
				next = (next + 1) % window
				if n < window {
					n++
				}
			}
			stalls[snext] = stalled
			snext = (snext + 1) % window
			if sn < window {
				sn++
			}
			if n < minFill {
				o.Skip = true
				return
			}
			g := buf[0]
			for i := 1; i < n; i++ {
				g = realGCD(g, buf[i], eps)
			}
			// A lattice needs corroboration beyond a common divisor: either
			// two distinct multiples in the window (a stretch of identical
			// deltas has a large GCD by construction and proves nothing), or
			// repeated stalled axes (coarse grids step one pitch at a time,
			// freezing the reported position between boundary crossings).
			distinct := 0
			if g > eps {
				var seen [window]int64
				for i := 0; i < n; i++ {
					q := int64(math.Round(buf[i] / g))
					dup := false
					for j := 0; j < distinct; j++ {
						if seen[j] == q {
							dup = true
							break
						}
					}
					if !dup {
						seen[distinct] = q
						distinct++
					}
				}
			}
			stallSum := 0
			for i := 0; i < sn; i++ {
				stallSum += int(stalls[i])
			}
			pitch := g
			if distinct < 2 && stallSum < maxStall {
				pitch = 0 // degenerate: no lattice evidence
			}
			o.Set(pitch < minGrid, minGrid-pitch).
				And("lattice_pitch", pitch).And("gcd", g).And("min_grid", minGrid).And("stalled", float64(stallSum))
		}, func() { n, next, sn, snext, has = 0, 0, 0, 0, false })
}

// realGCD folds the Euclidean algorithm over positive reals: the result
// divides both inputs to within eps. For inputs that are exact multiples
// of a common pitch it returns (a multiple of) that pitch; for
// incommensurate inputs it collapses toward eps.
func realGCD(a, b, eps float64) float64 {
	for b > eps {
		a, b = b, rem(a, b)
	}
	return a
}

// rem is math.Mod(a, b), bit for bit, without its bit-by-bit long division
// on the arguments realGCD folds. For 0 ≤ a < b, fmod is a. For a ≥ b > 0
// the quotient q = Trunc(a/b) of the correctly rounded a/b is the true
// quotient or one more, while it is below 2⁵². The exact a − q·b is then
// a multiple of b's ulp (a ≥ b is a multiple of it too) with magnitude at
// most b, so it is representable: the FMA computes it exactly, and adding
// b back when it is negative is exact too and gives fmod's remainder.
// Every other argument — negative, NaN, ±Inf, zero b, a huge quotient —
// takes math.Mod.
func rem(a, b float64) float64 {
	if a >= 0 && b > 0 {
		if a < b {
			return a
		}
		if q := math.Trunc(a / b); q < 1<<52 {
			r := math.FMA(-q, b, a)
			if r < 0 {
				r += b
			}
			return r
		}
	}
	return math.Mod(a, b)
}

// angleDiff is the angular difference used by heading-consistency checks.
// On (−2π, 2π) math.Mod by 2π is the identity, so it is skipped there.
func angleDiff(a, b float64) float64 {
	d := a - b
	if !(math.Abs(d) < 2*math.Pi) {
		d = math.Mod(d, 2*math.Pi)
	}
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d < -math.Pi:
		d += 2 * math.Pi
	}
	return d
}
