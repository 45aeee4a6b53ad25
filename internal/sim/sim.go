// Package sim is the deterministic closed-loop simulation engine: it wires
// the vehicle plant, sensor models, attack campaign, fusion stack, planner,
// controllers and the ADAssure monitor into a fixed-step run, producing a
// signal trace and the monitor's violation record. It substitutes for the
// original study's shuttle platform plus ROS recording infrastructure.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/obs"
	"adassure/internal/planner"
	"adassure/internal/sensors"
	"adassure/internal/trace"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// The simulated platform's fixed timing: 100 Hz physics, 20 Hz control
// and monitoring, and the speed the vehicle spawns with.
const (
	engineRate   float64 = 100 // Hz
	controlRate  float64 = 20  // Hz
	initialSpeed float64 = 1   // m/s
)

// The guard's fixed fallback policy (see GuardConfig).
const (
	// fallbackAfter is the consecutive-reject count that switches
	// localization to dead reckoning.
	fallbackAfter = 3
	// fallbackSpeed caps the target speed while in fallback, m/s.
	fallbackSpeed = 2
	// recoverDist is how close (m) incoming fixes must be to the
	// dead-reckoned position, twice in a row, to leave fallback and
	// re-initialise fusion.
	recoverDist = 5
	// mrmAfter is how long (s) fallback may persist before the vehicle
	// executes a minimum-risk manoeuvre and brakes to a stop.
	mrmAfter = 8
	// latchTime is how long (s) an assertion-triggered fallback is latched
	// before recovery checks resume. A violation raised by the monitor
	// means the measurement stream is actively hostile; unlike a gate
	// rejection it cannot be "walked back" by measurements that merely
	// agree with the already-dragged anchor.
	latchTime = 20
)

// GuardConfig is the defence configuration the debug-loop experiment
// toggles: χ²-gated fusion with dead-reckoning fallback and a speed cap
// while the GNSS channel is distrusted.
type GuardConfig struct {
	// Enabled turns the whole guard on.
	Enabled bool
	// GateThreshold is the fusion χ² gate (default fusion.DefaultGate).
	GateThreshold float64
	// StaleAfter is the GNSS silence (s) that also triggers fallback —
	// covering dropout/delay attacks where no fix ever reaches the gate
	// (default 1.2 s).
	StaleAfter float64
	// AssertionTrigger additionally enters fallback when the attached
	// Monitor raises a critical online violation — the ADAssure
	// assertion-driven recovery that covers slow drifts the χ² gate can
	// never see. Requires Config.Monitor.
	AssertionTrigger bool
}

func (g *GuardConfig) defaults() {
	if g.GateThreshold <= 0 {
		g.GateThreshold = fusion.DefaultGate
	}
	if g.StaleAfter <= 0 {
		g.StaleAfter = 1.2
	}
}

// FaultSet injects deterministic component-fault models into a run. The
// sensor hooks sit between the pristine sensor models and the attack
// campaign (a hardware fault happens upstream of any adversarial channel
// manipulation); returning deliver=false drops the reading. The Actuator
// hook corrupts the command after the monitor has seen what the controller
// requested — the same interposition point as Campaign.Actuator — and runs
// ahead of it. Hooks may keep internal state (latency queues, stuck-at
// latches); a FaultSet must therefore not be shared across concurrent
// runs. All fields are optional; a nil FaultSet is a pristine run.
type FaultSet struct {
	GNSS     func(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool)
	IMU      func(r sensors.IMUReading, t float64) (sensors.IMUReading, bool)
	Odom     func(r sensors.OdomReading, t float64) (sensors.OdomReading, bool)
	Actuator func(cmd vehicle.Command, t float64) vehicle.Command
}

// Config describes one simulation run.
type Config struct {
	// Track is the route to drive. Required.
	Track *track.Track
	// Controller is the lateral controller name (control.ByName). Required.
	Controller string
	// Vehicle is the parameter set (default ShuttleParams).
	Vehicle vehicle.Params
	// Localizer selects the fusion stack: "ekf" (default) or
	// "complementary" (fixed-gain filter without innovation gating — the
	// χ² guard triggers and assertion A10 are unavailable with it).
	Localizer string
	// Seed drives all stochastic components.
	Seed int64
	// Duration is the simulated time budget in seconds (default 60).
	Duration float64
	// Campaign is the attack configuration (zero value = clean run).
	Campaign attacks.Campaign
	// WrapLateral, when non-nil, wraps the lateral controller right after
	// construction — the mutation-testing engine's injection point for
	// controller-level mutants (the pristine control implementations are
	// never touched). A wrapper that can emit non-finite commands must be
	// run with DisableTrace (the trace layer stores finite samples only;
	// the step loop skips recording such samples, the plant sanitises
	// them, and the monitor skips the affected frames).
	WrapLateral func(control.Lateral) control.Lateral
	// WrapSpeed is WrapLateral for the longitudinal controller.
	WrapSpeed func(control.Longitudinal) control.Longitudinal
	// Faults, when non-nil, injects component-fault models between the
	// pristine sensors and the attack campaign (see FaultSet).
	Faults *FaultSet
	// Guard configures the defended stack.
	Guard GuardConfig
	// Monitor, when non-nil, receives one core.Frame per control step.
	Monitor *core.Monitor
	// RecordFrames additionally stores every monitor frame in the Result,
	// enabling offline re-monitoring with different catalogs/thresholds
	// without re-simulating (see internal/offline).
	RecordFrames bool
	// Obs, when non-nil, receives runtime metrics: control-step count and
	// per-step latency histogram (sim.steps, sim.step_ns), the achieved
	// steps-per-second of the run (sim.steps_per_sec), and — via
	// Monitor.Attach — the per-assertion monitoring cost. A nil registry
	// adds no measurable overhead to the step loop.
	Obs *obs.Registry
	// DisableTrace turns off signal recording (Result.Trace is then nil),
	// for overhead-free timing and for runs that may emit non-finite
	// commands.
	DisableTrace bool
	// Events, when non-nil, receives the run's structured event timeline:
	// the scenario lifecycle span, the attack activation window, guard
	// fallback intervals, termination instants and — via
	// Monitor.AttachEvents — every violation episode. A nil recorder adds
	// no measurable overhead (single nil checks on the control path).
	Events *events.Recorder
	// EventScope prefixes every event track this run emits (e.g. "s3/"),
	// keeping tracks distinct when concurrent runs share one recorder.
	EventScope string
	// Context, when non-nil, cancels the run early: the step loop checks it
	// once per control step (20 Hz of simulated time — microseconds of wall
	// time) and aborts with an error wrapping ctx.Err(). This is how a
	// serving layer's per-request timeout reaches the simulator without the
	// loop having to finish the full Duration first.
	Context context.Context
}

func (c *Config) defaults() error {
	if c.Track == nil {
		return fmt.Errorf("sim: config requires a track")
	}
	if c.Controller == "" {
		return fmt.Errorf("sim: config requires a controller name")
	}
	if c.Vehicle.Wheelbase == 0 {
		c.Vehicle = vehicle.ShuttleParams()
	}
	if err := c.Vehicle.Validate(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		c.Duration = 60
	}
	switch c.Localizer {
	case "":
		c.Localizer = "ekf"
	case "ekf", "complementary":
	default:
		return fmt.Errorf("sim: unknown localizer %q", c.Localizer)
	}
	c.Guard.defaults()
	return nil
}

// Result summarises a run.
type Result struct {
	// Trace holds the recorded signals (nil when disabled).
	Trace *trace.Trace
	// Final is the vehicle's final ground-truth state.
	Final vehicle.State
	// SimTime is the simulated seconds actually run.
	SimTime float64
	// Steps is the number of control steps executed.
	Steps int
	// MaxTrueCTE and RMSTrueCTE summarise physical tracking quality.
	MaxTrueCTE, RMSTrueCTE float64
	// MaxEstCTE summarises believed tracking quality.
	MaxEstCTE float64
	// ProgressTotal is the route distance covered.
	ProgressTotal float64
	// Laps counts completed laps on closed tracks.
	Laps int
	// Finished reports open-route completion.
	Finished bool
	// Diverged is set when the vehicle left the 100 m corridor around the
	// path and the run was aborted.
	Diverged bool
	// FallbackTime is the simulated time spent in dead-reckoning fallback.
	FallbackTime float64
	// Violations echoes the monitor's record (nil monitor → nil).
	Violations []core.Violation
	// Frames holds the recorded frame stream when RecordFrames was set.
	Frames []core.Frame
}

// Run executes one simulation. It is deterministic in (Config, Seed).
func Run(cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	lateral, err := control.ByName(cfg.Controller, cfg.Vehicle)
	if err != nil {
		return nil, err
	}
	if cfg.WrapLateral != nil {
		lateral = cfg.WrapLateral(lateral)
	}
	var speedCtl control.Longitudinal = control.NewSpeedPID(cfg.Vehicle)
	if cfg.WrapSpeed != nil {
		speedCtl = cfg.WrapSpeed(speedCtl)
	}
	profile, err := planner.NewSpeedProfileForTrack(cfg.Track, cfg.Vehicle)
	if err != nil {
		return nil, err
	}
	progress, err := planner.NewProgress(cfg.Track.Path())
	if err != nil {
		return nil, err
	}
	follower, err := planner.NewFollower(cfg.Track.Path())
	if err != nil {
		return nil, err
	}
	truthFollower, err := planner.NewFollower(cfg.Track.Path())
	if err != nil {
		return nil, err
	}

	model := vehicle.NewKinematic(cfg.Vehicle)

	gnss := sensors.NewGNSS(cfg.Seed*7 + 1)
	imu := sensors.NewIMU(cfg.Seed*7 + 2)
	odom := sensors.NewOdometer(cfg.Seed*7 + 3)

	start := cfg.Track.StartPose()
	truth := vehicle.State{X: start.Pos.X, Y: start.Pos.Y, Heading: start.Heading, Speed: initialSpeed}

	gate := 0.0
	if cfg.Guard.Enabled {
		gate = cfg.Guard.GateThreshold
	}
	newLocalizer := func(t0 float64, pose geom.Pose, speed float64) fusion.Localizer {
		if cfg.Localizer == "complementary" {
			return fusion.NewComplementary(t0, pose, speed)
		}
		return fusion.NewEKF(gate, t0, pose, speed)
	}
	ekf := newLocalizer(0, start, initialSpeed)
	dr := fusion.NewDeadReckoner(0, start, initialSpeed)

	res := &Result{}
	engineDT := 1 / engineRate
	controlEvery := int(math.Round(engineRate / controlRate))
	controlDT := engineDT * float64(controlEvery)

	// Trace recording is columnar: the column handles are resolved once,
	// before the loop, and each column preallocates the full horizon
	// (duration × control rate), so steady-state recording is a pair of
	// slice appends per signal — no map lookups, no reallocation.
	var tc *stepColumns
	if !cfg.DisableTrace {
		tr := trace.New()
		tr.Reserve(int(math.Ceil(cfg.Duration/controlDT)) + 1)
		tc = newStepColumns(tr)
		res.Trace = tr
	}
	if cfg.RecordFrames {
		res.Frames = make([]core.Frame, 0, int(math.Ceil(cfg.Duration/controlDT))+1)
	}

	// Observability: resolve handles once so the loop pays only nil checks
	// when cfg.Obs is nil. Per-control-step timing uses chained clock reads
	// (one per control step) covering the physics sub-steps, sensor/fusion
	// work, control and monitoring since the previous control step.
	var stepsCtr *obs.Counter
	var stepNS *obs.Histogram
	var wallStart, lastStepClock time.Time
	if cfg.Obs != nil {
		cfg.Obs.Counter("sim.runs").Inc()
		stepsCtr = cfg.Obs.Counter("sim.steps")
		stepNS = cfg.Obs.Histogram("sim.step_ns")
		if cfg.Monitor != nil {
			cfg.Monitor.Attach(cfg.Obs)
		}
		wallStart = time.Now()
		lastStepClock = wallStart
	}

	// Event timeline: the scenario span opens at t=0; attack-window and
	// guard-fallback transitions are emitted as the control loop crosses
	// them, so the recorded boundaries reflect what the run actually
	// executed (an aborted run closes its spans at the abort instant).
	ev := cfg.Events
	scenarioName := cfg.Controller + " on " + cfg.Track.Name()
	attackWin, hasAttack := cfg.Campaign.ActiveWindow()
	attackOpen, guardOpen := false, false
	if ev != nil {
		ev.Begin(events.CatScenario, cfg.EventScope+"scenario", scenarioName, 0,
			map[string]float64{"seed": float64(cfg.Seed), "duration": cfg.Duration})
		if cfg.Monitor != nil {
			cfg.Monitor.AttachEvents(ev, cfg.EventScope)
		}
	}

	// Derived-GNSS state: the receiver-style course/speed over ground are
	// computed from the displacement across a ~1 s baseline of delivered
	// fixes, which keeps the white position noise from dominating the
	// derivative (a single-period baseline would have ~2 m/s of speed
	// noise at 10 Hz).
	const derivedBaseline = 1.0
	var lastFix sensors.GNSSFix
	lastFixAt := 0.0 // run start counts as fresh for the staleness trigger
	type stampedFix struct {
		t float64
		p geom.Vec2
	}
	// ~1 s of fixes at 10 Hz plus slack; eviction compacts in place so the
	// backing array is allocated once per run.
	fixHist := make([]stampedFix, 0, 64)
	derivedCourse, derivedSpeed := start.Heading, initialSpeed

	var lastIMU sensors.IMUReading
	lastIMUAt := math.Inf(-1)
	var lastOdom sensors.OdomReading
	lastOdomAt := math.Inf(-1)

	cmd := vehicle.Command{}
	inFallback := false
	fallbackSince := 0.0
	latchUntil := 0.0
	recoveryCount := 0
	seenViolations := 0
	lastEKFUpdateAt := math.Inf(-1)
	var sumSqTrueCTE float64
	var cteSamples int

	nSteps := int(math.Round(cfg.Duration / engineDT))
	for step := 1; step <= nSteps; step++ {
		t := float64(step) * engineDT

		// Physics.
		truth = model.Step(truth, cmd, engineDT)
		res.SimTime = t

		// Sensors → attacks → fusion.
		for _, r := range imu.Poll(truth, t) {
			if cfg.Faults != nil && cfg.Faults.IMU != nil {
				var deliver bool
				if r, deliver = cfg.Faults.IMU(r, t); !deliver {
					continue
				}
			}
			if cfg.Campaign.IMU != nil {
				var deliver bool
				if r, deliver = cfg.Campaign.IMU.Apply(r, t); !deliver {
					continue
				}
			}
			ekf.PredictIMU(r)
			dr.StepIMU(r)
			lastIMU, lastIMUAt = r, t
		}
		for _, r := range odom.Poll(truth, t) {
			if cfg.Faults != nil && cfg.Faults.Odom != nil {
				var deliver bool
				if r, deliver = cfg.Faults.Odom(r, t); !deliver {
					continue
				}
			}
			if cfg.Campaign.Odom != nil {
				var deliver bool
				if r, deliver = cfg.Campaign.Odom.Apply(r, t); !deliver {
					continue
				}
			}
			ekf.UpdateOdom(r)
			dr.ObserveOdom(r)
			lastOdom, lastOdomAt = r, t
		}
		for _, fix := range gnss.Poll(truth, t) {
			if cfg.Faults != nil && cfg.Faults.GNSS != nil {
				var deliver bool
				if fix, deliver = cfg.Faults.GNSS(fix, t); !deliver {
					continue
				}
			}
			if cfg.Campaign.GNSS != nil {
				var deliver bool
				if fix, deliver = cfg.Campaign.GNSS.Apply(fix, t); !deliver {
					continue
				}
			}
			if inFallback {
				// Quarantine: fixes are not fused while distrusted. Leave
				// fallback only after the latch has expired and two
				// consecutive fixes land near the dead-reckoned position,
				// then re-seed the filter there.
				if t < latchUntil {
					continue
				}
				if fix.Pos.Dist(dr.Estimate().Pose.Pos) < recoverDist {
					recoveryCount++
				} else {
					recoveryCount = 0
				}
				if recoveryCount >= 2 {
					e := dr.Estimate()
					ekf = newLocalizer(t, e.Pose, e.Speed)
					ekf.UpdateGNSS(fix)
					lastEKFUpdateAt = t
					inFallback = false
					recoveryCount = 0
				}
			} else {
				_, accepted := ekf.UpdateGNSS(fix)
				lastEKFUpdateAt = t
				if accepted && cfg.Guard.Enabled {
					// Re-anchor the reckoner at every trusted fusion output.
					e := ekf.Estimate()
					dr.Reset(e.T, e.Pose, e.Speed)
				}
			}
			// Receiver-derived course/speed over the smoothing baseline.
			fixHist = append(fixHist, stampedFix{t: t, p: fix.Pos})
			evict := 0
			for evict < len(fixHist)-1 && t-fixHist[evict].t > derivedBaseline+0.05 {
				evict++
			}
			if evict > 0 {
				n := copy(fixHist, fixHist[evict:])
				fixHist = fixHist[:n]
			}
			if oldest := fixHist[0]; t-oldest.t > derivedBaseline*0.5 {
				d := fix.Pos.Sub(oldest.p)
				derivedSpeed = d.Norm() / (t - oldest.t)
				if derivedSpeed > 0.5 {
					derivedCourse = d.Angle()
				}
			}
			lastFix, lastFixAt = fix, t
		}

		// Control + monitoring at the control rate.
		if step%controlEvery != 0 {
			continue
		}

		// Cancellation gate: one cheap Err() call per control step keeps
		// the abort latency under one control period of wall time.
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				return nil, fmt.Errorf("sim: run cancelled at t=%.2f s: %w", t, err)
			}
		}

		// Guard entry triggers.
		if cfg.Guard.Enabled {
			assertionHit := false
			if cfg.Guard.AssertionTrigger && cfg.Monitor != nil {
				for i := seenViolations; i < cfg.Monitor.NumViolations(); i++ {
					// Only online critical assertions drive recovery; A12
					// reads ground truth and exists for offline scoring.
					// Indexed access avoids the per-step copy Violations()
					// would make of the whole record.
					v := cfg.Monitor.ViolationAt(i)
					if v.Severity == core.Critical && v.AssertionID != "A12" {
						assertionHit = true
					}
				}
			}
			if assertionHit {
				// New evidence of hostility (re-)latches the quarantine.
				latchUntil = t + latchTime
			}
			gateTrigger := ekf.RejectStreak() >= fallbackAfter ||
				t-lastFixAt > cfg.Guard.StaleAfter
			if !inFallback && (gateTrigger || assertionHit) {
				inFallback = true
				fallbackSince = t
				recoveryCount = 0
			}
		}
		if cfg.Monitor != nil {
			seenViolations = cfg.Monitor.NumViolations()
		}

		if ev != nil {
			if hasAttack {
				if active := attackWin.Contains(t); active != attackOpen {
					attackOpen = active
					if active {
						ev.Begin(events.CatAttack, cfg.EventScope+"attack", cfg.Campaign.Name(), t,
							map[string]float64{"start": attackWin.Start, "end": attackWin.End})
					} else {
						ev.End(events.CatAttack, cfg.EventScope+"attack", cfg.Campaign.Name(), t, nil)
					}
				}
			}
			if guardOpen != inFallback {
				guardOpen = inFallback
				if inFallback {
					ev.Begin(events.CatGuard, cfg.EventScope+"guard", "dead-reckoning fallback", t, nil)
				} else {
					ev.End(events.CatGuard, cfg.EventScope+"guard", "dead-reckoning fallback", t, nil)
				}
			}
		}

		est := ekf.Estimate()
		if inFallback {
			est = dr.Estimate()
			res.FallbackTime += controlDT
		}

		s, cte := follower.Project(est.Pose.Pos)
		headingErr := geom.AngleDiff(est.Pose.Heading, cfg.Track.Path().HeadingAt(s))
		kappa := cfg.Track.Path().CurvatureAt(s)
		prog := progress.Observe(s)
		// Compensate the drivetrain/PID lag by also honouring the profile
		// about half a second of travel ahead — otherwise the vehicle
		// enters sharp corners ~1 m/s hot.
		target := math.Min(profile.TargetAt(s), profile.TargetAt(s+est.Speed*0.6))
		if inFallback {
			if target > fallbackSpeed {
				target = fallbackSpeed
			}
			if t-fallbackSince > mrmAfter {
				target = 0 // minimum-risk manoeuvre: come to a stop
			}
		}

		// The command interface contract: steering requests saturate at the
		// actuator limit before they leave the controller node.
		steer := geom.Clamp(lateral.Steer(est, cfg.Track.Path(), controlDT), -cfg.Vehicle.MaxSteer, cfg.Vehicle.MaxSteer)
		accel := speedCtl.Accel(est.Speed, target, controlDT)
		cmd = vehicle.Command{Steer: steer, Accel: accel}
		if cfg.Faults != nil && cfg.Faults.Actuator != nil {
			// Component-level actuator fault: like Campaign.Actuator below,
			// it corrupts after the monitor has seen the requested command.
			cmd = cfg.Faults.Actuator(cmd, t)
		}
		if cfg.Campaign.Actuator != nil {
			// Actuator faults corrupt the command *after* the controller
			// (and after the monitor sees what was requested) — the plant
			// executes the faulted command.
			cmd = cfg.Campaign.Actuator.Apply(cmd, t)
		}
		res.Steps++

		_, trueCTE := truthFollower.Project(geom.V(truth.X, truth.Y))
		if a := math.Abs(trueCTE); a > res.MaxTrueCTE {
			res.MaxTrueCTE = a
		}
		if a := math.Abs(cte); a > res.MaxEstCTE {
			res.MaxEstCTE = a
		}
		sumSqTrueCTE += trueCTE * trueCTE
		cteSamples++

		nis, _ := ekf.LastNIS()
		nisFresh := t-lastEKFUpdateAt <= controlDT && cfg.Localizer == "ekf"

		// Curvature band the controller may legitimately be steering for:
		// slightly behind the projection to one lookahead distance ahead.
		curvLo, curvHi := kappa, kappa
		for d := -2.0; d <= 12.0; d += 1.0 {
			k := cfg.Track.Path().CurvatureAt(s + d)
			if k < curvLo {
				curvLo = k
			}
			if k > curvHi {
				curvHi = k
			}
		}

		if cfg.Monitor != nil || cfg.RecordFrames {
			frame := core.Frame{
				T: t, Dt: controlDT,
				EstX: est.Pose.Pos.X, EstY: est.Pose.Pos.Y,
				EstHeading: est.Pose.Heading, EstSpeed: est.Speed,
				EstYawRate: est.YawRate, EstPosStdDev: est.PosStdDev,
				GNSSX: lastFix.Pos.X, GNSSY: lastFix.Pos.Y,
				GNSSSpeed: derivedSpeed, GNSSCourse: derivedCourse,
				GNSSAge: t - lastFixAt, GNSSValid: lastFix.Valid,
				IMUHeading: lastIMU.Heading, IMUYawRate: lastIMU.YawRate,
				IMUAccel: lastIMU.Accel, IMUAge: t - lastIMUAt,
				OdomSpeed: lastOdom.Speed, OdomAge: t - lastOdomAt,
				CmdSteer: steer, CmdAccel: accel,
				RefS: s, CTE: cte, HeadingErr: headingErr,
				Curvature: kappa, TargetSpeed: target, Progress: prog,
				CurvAheadMin: curvLo, CurvAheadMax: curvHi,
				NIS: nis, NISFresh: nisFresh, RejectStreak: ekf.RejectStreak(),
				TrueX: truth.X, TrueY: truth.Y, TrueHeading: truth.Heading,
				TrueSpeed: truth.Speed, TrueCTE: trueCTE,
			}
			if cfg.Monitor != nil {
				cfg.Monitor.Step(frame)
			}
			if cfg.RecordFrames {
				res.Frames = append(res.Frames, frame)
			}
		}

		if tc != nil {
			tc.trueX.MustAppend(t, truth.X)
			tc.trueY.MustAppend(t, truth.Y)
			tc.estX.MustAppend(t, est.Pose.Pos.X)
			tc.estY.MustAppend(t, est.Pose.Pos.Y)
			tc.gnssX.MustAppend(t, lastFix.Pos.X)
			tc.gnssY.MustAppend(t, lastFix.Pos.Y)
			tc.cteTrue.MustAppend(t, trueCTE)
			tc.cteEst.MustAppend(t, cte)
			tc.speed.MustAppend(t, truth.Speed)
			tc.targetSpeed.MustAppend(t, target)
			appendFinite(tc.steer, t, steer)
			appendFinite(tc.accelCmd, t, accel)
			tc.nis.MustAppend(t, nis)
			tc.headingErr.MustAppend(t, headingErr)
			tc.estHeading.MustAppend(t, est.Pose.Heading)
			tc.imuHeading.MustAppend(t, lastIMU.Heading)
			tc.curvature.MustAppend(t, kappa)
			tc.progress.MustAppend(t, prog)
			tc.fallback.MustAppend(t, boolTo01(inFallback))
		}

		if stepNS != nil {
			now := time.Now()
			stepNS.Observe(now.Sub(lastStepClock).Nanoseconds())
			lastStepClock = now
			stepsCtr.Inc()
		}

		// Termination conditions.
		if progress.Finished() {
			res.Finished = true
			break
		}
		if math.Abs(trueCTE) > 100 {
			res.Diverged = true
			break
		}
	}

	res.Final = truth
	res.ProgressTotal = progress.Total()
	res.Laps = progress.Laps()
	if cteSamples > 0 {
		res.RMSTrueCTE = math.Sqrt(sumSqTrueCTE / float64(cteSamples))
	}
	if cfg.Monitor != nil {
		res.Violations = cfg.Monitor.Violations()
	}
	if ev != nil {
		t := res.SimTime
		if attackOpen {
			ev.End(events.CatAttack, cfg.EventScope+"attack", cfg.Campaign.Name(), t,
				map[string]float64{"truncated": 1})
		}
		if guardOpen {
			ev.End(events.CatGuard, cfg.EventScope+"guard", "dead-reckoning fallback", t,
				map[string]float64{"truncated": 1})
		}
		if cfg.Monitor != nil {
			cfg.Monitor.FinishEvents(t)
		}
		if res.Diverged {
			ev.Instant(events.CatScenario, cfg.EventScope+"scenario", "diverged", t, nil)
		}
		if res.Finished {
			ev.Instant(events.CatScenario, cfg.EventScope+"scenario", "finished", t, nil)
		}
		ev.End(events.CatScenario, cfg.EventScope+"scenario", scenarioName, t, map[string]float64{
			"steps":        float64(res.Steps),
			"max_true_cte": res.MaxTrueCTE,
			"violations":   float64(len(res.Violations)),
		})
	}
	if cfg.Obs != nil {
		if elapsed := time.Since(wallStart).Seconds(); elapsed > 0 {
			cfg.Obs.Gauge("sim.steps_per_sec").Set(float64(res.Steps) / elapsed)
		}
	}
	return res, nil
}

// stepColumns holds the resolved trace column handles for every signal the
// step loop records, so the loop performs no per-step map lookups. The
// declaration order matches the original Record order, which fixes the
// signal first-appearance order (and hence CSV column order) byte-for-byte.
type stepColumns struct {
	trueX, trueY           *trace.Column
	estX, estY             *trace.Column
	gnssX, gnssY           *trace.Column
	cteTrue, cteEst        *trace.Column
	speed, targetSpeed     *trace.Column
	steer, accelCmd        *trace.Column
	nis                    *trace.Column
	headingErr, estHeading *trace.Column
	imuHeading             *trace.Column
	curvature, progress    *trace.Column
	fallback               *trace.Column
}

func newStepColumns(tr *trace.Trace) *stepColumns {
	return &stepColumns{
		trueX: tr.Column("true_x"), trueY: tr.Column("true_y"),
		estX: tr.Column("est_x"), estY: tr.Column("est_y"),
		gnssX: tr.Column("gnss_x"), gnssY: tr.Column("gnss_y"),
		cteTrue: tr.Column("cte_true"), cteEst: tr.Column("cte_est"),
		speed: tr.Column("speed"), targetSpeed: tr.Column("target_speed"),
		steer: tr.Column("steer"), accelCmd: tr.Column("accel_cmd"),
		nis:        tr.Column("nis"),
		headingErr: tr.Column("heading_err"), estHeading: tr.Column("est_heading"),
		imuHeading: tr.Column("imu_heading"),
		curvature:  tr.Column("curvature"), progress: tr.Column("progress"),
		fallback: tr.Column("fallback"),
	}
}

// appendFinite appends a sample, silently skipping non-finite values: the
// trace layer stores finite samples only, and a mutated controller
// (WrapLateral) may legitimately emit NaN commands.
func appendFinite(c *trace.Column, t, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		c.MustAppend(t, v)
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
