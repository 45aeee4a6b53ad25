// Package sim is the deterministic closed-loop simulation engine: it wires
// the vehicle plant, sensor models, attack campaign, fusion stack, planner,
// controllers and the ADAssure monitor into a fixed-step run, producing the
// monitor's violation record and, on request, the frame stream that
// core.SignalTrace projects onto the signal trace. It substitutes for the
// original study's shuttle platform plus ROS recording infrastructure.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// The simulated platform's fixed timing: 100 Hz physics, 20 Hz control
// and monitoring (every controlEvery-th engine tick), and the speed the
// vehicle spawns with.
const (
	engineRate   float64 = 100 // Hz
	controlRate  float64 = 20  // Hz
	initialSpeed float64 = 1   // m/s

	engineDT     = 1 / engineRate
	controlEvery = int(engineRate / controlRate)
	controlDT    = engineDT * float64(controlEvery)
)

// MaxDuration bounds Config.Duration (s), one simulated hour. It keeps the
// step count and the frame preallocation, which scale with the duration,
// finite and allocatable. Every canonicalizer that admits a run
// duration checks it against this bound.
const MaxDuration = 3600

// DefaultDuration is the run length (s) of a Config that names none, and
// of every run of a mutation or search campaign that names none.
const DefaultDuration = 60

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

// Localizers lists the fusion stacks Config.Localizer accepts, the
// default first. Callers must not modify it.
func Localizers() []string { return localizers }

var localizers = []string{"ekf", "complementary"}

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
	// Duration is the simulated time budget in seconds: 0 means
	// DefaultDuration (60), and anything else must lie in (0, 3600], at
	// most one simulated hour.
	// A negative, non-finite or longer duration is an error.
	Duration float64
	// Campaign is the attack configuration (zero value = clean run).
	Campaign attacks.Campaign
	// WrapLateral, when non-nil, wraps the lateral controller right after
	// construction — the mutation-testing engine's injection point for
	// controller-level mutants (the pristine control implementations are
	// never touched). A wrapper may emit non-finite commands: the plant
	// sanitises them, the monitor skips the affected frames, and
	// core.SignalTrace leaves them out of the command columns.
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
	// RecordFrames stores every monitor frame in Result.Frames, the run's
	// one per-step record: offline re-monitoring replays it (see
	// internal/offline) and core.SignalTrace projects the signal trace
	// from it. Recording never changes a frame, violation or summary
	// field; it only costs memory, so set it where a reader exists.
	RecordFrames bool
	// Obs, when non-nil, receives runtime metrics: the exact control-step
	// count and a sampled per-step latency histogram (sim.steps,
	// sim.step_ns; see obs.SampleEvery), the achieved steps-per-second of
	// the run (sim.steps_per_sec), and — via Monitor.Attach — the sampled
	// per-assertion monitoring cost. A nil registry adds no measurable
	// overhead to the step loop.
	Obs *obs.Registry
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
	switch {
	case c.Duration == 0:
		c.Duration = DefaultDuration
	case !(c.Duration > 0 && c.Duration <= MaxDuration):
		return fmt.Errorf("sim: duration must be in (0, %g] s, got %v", float64(MaxDuration), c.Duration)
	}
	if c.Localizer == "" {
		c.Localizer = localizers[0]
	} else if !slices.Contains(localizers, c.Localizer) {
		return fmt.Errorf("sim: unknown localizer %q", c.Localizer)
	}
	c.Guard.defaults()
	return nil
}

// Result summarises a run.
type Result struct {
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

// Counters resolves the run and control-step counters on reg, which Run
// increments. A caller that scrapes reg before the first run calls it to
// show both at zero rather than absent.
func Counters(reg *obs.Registry) (runs, steps *obs.Counter) {
	return reg.Counter("sim.runs"), reg.Counter("sim.steps")
}

// Run executes one simulation. It is deterministic in (Config, Seed).
func Run(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	for r.n < r.nSteps {
		if r.step() {
			break
		}
	}
	return r.finish()
}

// run is one simulation in progress: everything the closed loop carries
// from one engine tick to the next. Run is newRun, step until the run is
// over, then finish.
type run struct {
	cfg Config
	res *Result

	lateral                 control.Lateral
	speedCtl                control.Longitudinal
	profile                 *planner.SpeedProfile
	progress                planner.Progress
	follower, truthFollower *planner.Follower
	model                   vehicle.Kinematic
	gnss                    *sensors.GNSS
	imu                     *sensors.IMU
	odom                    *sensors.Odometer
	gnssIn                  delivery[sensors.GNSSFix]
	imuIn                   delivery[sensors.IMUReading]
	odomIn                  delivery[sensors.OdomReading]
	ekf                     fusion.Localizer
	dr                      fusion.DeadReckoner
	reckon                  bool // step dr: only the guard reads it
	ref                     control.Reference

	n, nSteps int // engine ticks taken, and the run's budget
	truth     vehicle.State
	cmd       vehicle.Command

	// Latest delivered readings and their times (lastFixAt starts at 0:
	// the run start counts as fresh for the staleness trigger), and the
	// receiver-style course/speed over ground derived from the fix
	// history (observeFix).
	lastFix                          sensors.GNSSFix
	lastIMU                          sensors.IMUReading
	lastOdom                         sensors.OdomReading
	lastFixAt, lastIMUAt, lastOdomAt float64
	fixHist                          []stampedFix // over fixBuf unless it outgrows it
	fixBuf                           [64]stampedFix
	derivedCourse, derivedSpeed      float64

	// Guard state.
	inFallback                                 bool
	fallbackSince, latchUntil, lastEKFUpdateAt float64
	recoveryCount, seenViolations              int

	sumSqTrueCTE float64
	cteSamples   int

	// Observability and the event timeline.
	stepsCtr                 *obs.Counter
	stepNS                   *obs.Histogram
	wallStart, lastStepClock time.Time
	pubSteps                 int // control steps already added to stepsCtr
	scenarioName             string
	attackWin                attacks.Window
	hasAttack                bool
	attackLane, guardLane    lane

	err error // set when the context cancelled the run
}

// stampedFix is one delivered GNSS position in the derived-course history.
type stampedFix struct {
	t float64
	p geom.Vec2
}

// newRun builds a run at t = 0: controllers, planner, plant, sensors,
// fusion, the frame buffer, and the obs and event wiring. The scenario
// span opens here; finish closes it.
func newRun(cfg Config) (*run, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, res: &Result{}, reckon: cfg.Guard.Enabled}
	var err error
	if r.lateral, err = control.ByName(cfg.Controller, cfg.Vehicle); err != nil {
		return nil, err
	}
	if cfg.WrapLateral != nil {
		r.lateral = cfg.WrapLateral(r.lateral)
	}
	r.speedCtl = control.NewSpeedPID(cfg.Vehicle)
	if cfg.WrapSpeed != nil {
		r.speedCtl = cfg.WrapSpeed(r.speedCtl)
	}
	if r.profile, err = planner.NewSpeedProfileForTrack(cfg.Track, cfg.Vehicle); err != nil {
		return nil, err
	}
	progress, err := planner.NewProgress(cfg.Track.Path())
	if err != nil {
		return nil, err
	}
	r.progress = *progress
	if r.follower, err = planner.NewFollower(cfg.Track.Path()); err != nil {
		return nil, err
	}
	if r.truthFollower, err = planner.NewFollower(cfg.Track.Path()); err != nil {
		return nil, err
	}

	r.model = *vehicle.NewKinematic(cfg.Vehicle)
	r.gnss = sensors.NewGNSS(cfg.Seed)
	r.imu = sensors.NewIMU(cfg.Seed)
	r.odom = sensors.NewOdometer(cfg.Seed)
	var faults FaultSet
	if cfg.Faults != nil {
		faults = *cfg.Faults
	}
	r.gnssIn = newDelivery(faults.GNSS, cfg.Campaign.GNSS)
	r.imuIn = newDelivery(faults.IMU, cfg.Campaign.IMU)
	r.odomIn = newDelivery(faults.Odom, cfg.Campaign.Odom)

	start := cfg.Track.StartPose()
	r.truth = vehicle.State{X: start.Pos.X, Y: start.Pos.Y, Heading: start.Heading, Speed: initialSpeed}
	r.ekf = r.newLocalizer(0, start, initialSpeed)
	r.dr = *fusion.NewDeadReckoner(0, start, initialSpeed)
	r.nSteps = int(math.Round(cfg.Duration / engineDT))

	// The frame buffer preallocates the full horizon (duration × control
	// rate), so steady-state recording is one append that never
	// reallocates.
	if cfg.RecordFrames {
		r.res.Frames = make([]core.Frame, 0, int(math.Ceil(cfg.Duration/controlDT))+1)
	}

	// Observability: resolve handles once so the step pays only nil checks
	// when cfg.Obs is nil. Control steps are timed by sample (see
	// sampleStep), each sample covering the physics sub-steps, sensor/fusion
	// work, control and monitoring since the previous control step.
	if cfg.Obs != nil {
		runs, steps := Counters(cfg.Obs)
		runs.Inc()
		r.stepsCtr = steps
		r.stepNS = cfg.Obs.Histogram("sim.step_ns")
		if cfg.Monitor != nil {
			cfg.Monitor.Attach(cfg.Obs)
		}
		r.wallStart = time.Now()
		r.lastStepClock = r.wallStart
	}

	// Event timeline: the scenario span opens at t=0; attack-window and
	// guard-fallback transitions are emitted as the control loop crosses
	// them, so the recorded boundaries reflect what the run actually
	// executed (a cancelled run closes its spans at the cancel instant).
	r.attackWin, r.hasAttack = cfg.Campaign.ActiveWindow()
	if ev := cfg.Events; ev != nil {
		r.scenarioName = cfg.Controller + " on " + cfg.Track.Name()
		r.attackLane = lane{cat: events.CatAttack, track: cfg.EventScope + "attack", name: cfg.Campaign.Name(),
			attrs: map[string]float64{"start": r.attackWin.Start, "end": r.attackWin.End}}
		r.guardLane = lane{cat: events.CatGuard, track: cfg.EventScope + "guard", name: "dead-reckoning fallback"}
		ev.Begin(events.CatScenario, cfg.EventScope+"scenario", r.scenarioName, 0,
			map[string]float64{"seed": float64(cfg.Seed), "duration": cfg.Duration})
		if cfg.Monitor != nil {
			cfg.Monitor.AttachEvents(ev, cfg.EventScope)
		}
	}

	// ~1 s of fixes at 10 Hz fits the run's own buffer; eviction compacts
	// in place, so the history never allocates.
	r.fixHist = r.fixBuf[:0]
	r.derivedCourse, r.derivedSpeed = start.Heading, initialSpeed
	r.lastIMUAt, r.lastOdomAt, r.lastEKFUpdateAt = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	return r, nil
}

// newLocalizer builds the configured fusion stack at (t0, pose, speed).
func (r *run) newLocalizer(t0 float64, pose geom.Pose, speed float64) fusion.Localizer {
	if r.cfg.Localizer == "complementary" {
		return fusion.NewComplementary(t0, pose, speed)
	}
	gate := 0.0
	if r.cfg.Guard.Enabled {
		gate = r.cfg.Guard.GateThreshold
	}
	return fusion.NewEKF(gate, t0, pose, speed)
}

// step advances the run by one engine tick: physics, then every sensor
// reading through its fault hook and attack channel into fusion, and on
// every controlEvery-th tick the control step. It reports whether the run
// ended early: the route finished, the vehicle diverged, or the context
// cancelled the run (r.err is then set).
func (r *run) step() bool {
	r.n++
	t := float64(r.n) * engineDT

	// Physics.
	r.truth = r.model.Step(r.truth, r.cmd, engineDT)
	r.res.SimTime = t

	// Sensors → faults → attacks → fusion.
	for _, m := range r.imu.Poll(r.truth, t) {
		if m, ok := r.imuIn.deliver(m, t); ok {
			r.ekf.PredictIMU(m)
			if r.reckon {
				r.dr.StepIMU(m)
			}
			r.lastIMU, r.lastIMUAt = m, t
		}
	}
	for _, m := range r.odom.Poll(r.truth, t) {
		if m, ok := r.odomIn.deliver(m, t); ok {
			r.ekf.UpdateOdom(m)
			if r.reckon {
				r.dr.ObserveOdom(m)
			}
			r.lastOdom, r.lastOdomAt = m, t
		}
	}
	for _, fix := range r.gnss.Poll(r.truth, t) {
		if fix, ok := r.gnssIn.deliver(fix, t); ok {
			r.observeFix(fix, t)
		}
	}

	if r.n%controlEvery != 0 {
		return false
	}
	return r.control(t)
}

// observeFix fuses one delivered GNSS fix, or quarantines it while the
// guard distrusts the channel, and updates the derived course and speed.
func (r *run) observeFix(fix sensors.GNSSFix, t float64) {
	if r.inFallback {
		// Quarantine: fixes are not fused while distrusted. Leave
		// fallback only after the latch has expired and two
		// consecutive fixes land near the dead-reckoned position,
		// then re-seed the filter there.
		if t < r.latchUntil {
			return
		}
		if fix.Pos.Dist(r.dr.Estimate().Pose.Pos) < recoverDist {
			r.recoveryCount++
		} else {
			r.recoveryCount = 0
		}
		if r.recoveryCount >= 2 {
			e := r.dr.Estimate()
			r.ekf = r.newLocalizer(t, e.Pose, e.Speed)
			r.ekf.UpdateGNSS(fix)
			r.lastEKFUpdateAt = t
			r.inFallback = false
			r.recoveryCount = 0
		}
	} else {
		_, accepted := r.ekf.UpdateGNSS(fix)
		r.lastEKFUpdateAt = t
		if accepted && r.cfg.Guard.Enabled {
			// Re-anchor the reckoner at every trusted fusion output.
			e := r.ekf.Estimate()
			r.dr.Reset(e.T, e.Pose, e.Speed)
		}
	}
	// Receiver-derived course/speed over a ~1 s baseline of delivered
	// fixes, which keeps the white position noise from dominating the
	// derivative (a single-period baseline would have ~2 m/s of speed
	// noise at 10 Hz).
	const derivedBaseline = 1.0
	r.fixHist = append(r.fixHist, stampedFix{t: t, p: fix.Pos})
	evict := 0
	for evict < len(r.fixHist)-1 && t-r.fixHist[evict].t > derivedBaseline+0.05 {
		evict++
	}
	if evict > 0 {
		n := copy(r.fixHist, r.fixHist[evict:])
		r.fixHist = r.fixHist[:n]
	}
	if oldest := r.fixHist[0]; t-oldest.t > derivedBaseline*0.5 {
		d := fix.Pos.Sub(oldest.p)
		r.derivedSpeed = d.Norm() / (t - oldest.t)
		if r.derivedSpeed > 0.5 {
			r.derivedCourse = d.Angle()
		}
	}
	r.lastFix, r.lastFixAt = fix, t
}

// control is the 20 Hz half of a tick: the cancellation check, the guard,
// the event lanes, planning and control, the monitor frame and its
// recording, and step timing. It reports whether the run ended (see step).
func (r *run) control(t float64) bool {
	cfg := &r.cfg
	res := r.res

	// Cancellation gate: one cheap Err() call per control step keeps
	// the abort latency under one control period of wall time.
	if cfg.Context != nil {
		if err := cfg.Context.Err(); err != nil {
			r.err = fmt.Errorf("sim: run cancelled at t=%.2f s: %w", t, err)
			return true
		}
	}

	// Guard entry triggers.
	if cfg.Guard.Enabled {
		assertionHit := false
		if cfg.Guard.AssertionTrigger && cfg.Monitor != nil {
			for i := r.seenViolations; i < cfg.Monitor.NumViolations(); i++ {
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
			r.latchUntil = t + latchTime
		}
		gateTrigger := r.ekf.RejectStreak() >= fallbackAfter ||
			t-r.lastFixAt > cfg.Guard.StaleAfter
		if !r.inFallback && (gateTrigger || assertionHit) {
			r.inFallback = true
			r.fallbackSince = t
			r.recoveryCount = 0
		}
	}
	if cfg.Monitor != nil {
		r.seenViolations = cfg.Monitor.NumViolations()
	}

	if ev := cfg.Events; ev != nil {
		if r.hasAttack {
			r.attackLane.set(ev, r.attackWin.Contains(t), t, nil)
		}
		r.guardLane.set(ev, r.inFallback, t, nil)
	}

	est := r.ekf.Estimate()
	if r.inFallback {
		est = r.dr.Estimate()
		res.FallbackTime += controlDT
	}

	path := cfg.Track.Path()
	s, cte := r.follower.Project(est.Pose.Pos)
	r.ref = control.NewReference(path, est, s, cte, 0)
	prog := r.progress.Observe(s)
	// Compensate the drivetrain/PID lag by also honouring the profile
	// about half a second of travel ahead — otherwise the vehicle
	// enters sharp corners ~1 m/s hot.
	target := math.Min(r.profile.TargetAt(s), r.profile.TargetAt(s+est.Speed*0.6))
	if r.inFallback {
		if target > fallbackSpeed {
			target = fallbackSpeed
		}
		if t-r.fallbackSince > mrmAfter {
			target = 0 // minimum-risk manoeuvre: come to a stop
		}
	}

	// The command interface contract: steering requests saturate at the
	// actuator limit before they leave the controller node.
	steer := geom.Clamp(r.lateral.Steer(est, &r.ref, controlDT), -cfg.Vehicle.MaxSteer, cfg.Vehicle.MaxSteer)
	accel := r.speedCtl.Accel(est.Speed, target, controlDT)
	r.cmd = vehicle.Command{Steer: steer, Accel: accel}
	if cfg.Faults != nil && cfg.Faults.Actuator != nil {
		// Component-level actuator fault: like Campaign.Actuator below,
		// it corrupts after the monitor has seen the requested command.
		r.cmd = cfg.Faults.Actuator(r.cmd, t)
	}
	if cfg.Campaign.Actuator != nil {
		// Actuator faults corrupt the command *after* the controller
		// (and after the monitor sees what was requested) — the plant
		// executes the faulted command.
		r.cmd = cfg.Campaign.Actuator.Apply(r.cmd, t)
	}
	res.Steps++

	_, trueCTE := r.truthFollower.Project(geom.V(r.truth.X, r.truth.Y))
	if a := math.Abs(trueCTE); a > res.MaxTrueCTE {
		res.MaxTrueCTE = a
	}
	if a := math.Abs(cte); a > res.MaxEstCTE {
		res.MaxEstCTE = a
	}
	r.sumSqTrueCTE += trueCTE * trueCTE
	r.cteSamples++

	nis, _ := r.ekf.LastNIS()
	nisFresh := t-r.lastEKFUpdateAt <= controlDT && cfg.Localizer == "ekf"

	// Curvature band the controller may legitimately be steering for:
	// slightly behind the projection to one lookahead distance ahead.
	curvLo, curvHi := r.ref.Kappa, r.ref.Kappa
	for d := -2.0; d <= 12.0; d += 1.0 {
		k := path.CurvatureAt(s + d)
		if k < curvLo {
			curvLo = k
		}
		if k > curvHi {
			curvHi = k
		}
	}

	frame := core.Frame{
		T: t, Dt: controlDT,
		EstX: est.Pose.Pos.X, EstY: est.Pose.Pos.Y,
		EstHeading: est.Pose.Heading, EstSpeed: est.Speed,
		EstYawRate: est.YawRate, EstPosStdDev: core.StdDev(est.PosStdDev),
		GNSSX: r.lastFix.Pos.X, GNSSY: r.lastFix.Pos.Y,
		GNSSSpeed: r.derivedSpeed, GNSSCourse: r.derivedCourse,
		GNSSAge: t - r.lastFixAt, GNSSValid: r.lastFix.Valid,
		IMUHeading: r.lastIMU.Heading, IMUYawRate: r.lastIMU.YawRate,
		IMUAccel: r.lastIMU.Accel, IMUAge: t - r.lastIMUAt,
		OdomSpeed: r.lastOdom.Speed, OdomAge: t - r.lastOdomAt,
		CmdSteer: steer, CmdAccel: accel,
		RefS: s, CTE: cte, HeadingErr: r.ref.HeadingErr,
		Curvature: r.ref.Kappa, TargetSpeed: target, Progress: prog,
		CurvAheadMin: curvLo, CurvAheadMax: curvHi,
		NIS: nis, NISFresh: nisFresh, Fallback: r.inFallback, RejectStreak: r.ekf.RejectStreak(),
		TrueX: r.truth.X, TrueY: r.truth.Y, TrueHeading: r.truth.Heading,
		TrueSpeed: r.truth.Speed, TrueCTE: trueCTE,
	}
	if cfg.Monitor != nil {
		cfg.Monitor.Step(frame)
	}
	if cfg.RecordFrames {
		res.Frames = append(res.Frames, frame)
	}

	if r.stepNS != nil {
		r.sampleStep(res.Steps)
	}

	// Termination conditions.
	if r.progress.Finished() {
		res.Finished = true
		return true
	}
	if math.Abs(trueCTE) > 100 {
		res.Diverged = true
		return true
	}
	return false
}

// sampleStep times the first of every obs.SampleEvery control steps into
// sim.step_ns, from the end of the step before it (or the start of the run)
// to its own end, and then adds the steps since the last sample to
// sim.steps. The step before a sampled one reads the clock to open the
// sample; every other step does nothing here. finish adds the remainder.
func (r *run) sampleStep(steps int) {
	switch (steps - 1) % obs.SampleEvery {
	case 0:
		now := time.Now()
		r.stepNS.Observe(now.Sub(r.lastStepClock).Nanoseconds())
		r.stepsCtr.Add(int64(steps - r.pubSteps))
		r.pubSteps = steps
	case obs.SampleEvery - 1:
		r.lastStepClock = time.Now()
	}
}

// finish completes the result and closes what the run opened on the event
// timeline — the attack and guard lanes (marked truncated), the monitor's
// open violation episodes and the scenario span — at the last simulated
// instant. A cancelled run closes them too, then returns a nil result and
// its cancellation error.
func (r *run) finish() (*Result, error) {
	cfg, res := &r.cfg, r.res
	res.Final = r.truth
	res.ProgressTotal = r.progress.Total()
	res.Laps = r.progress.Laps()
	if r.cteSamples > 0 {
		res.RMSTrueCTE = math.Sqrt(r.sumSqTrueCTE / float64(r.cteSamples))
	}
	if cfg.Monitor != nil {
		res.Violations = cfg.Monitor.Violations()
		cfg.Monitor.Flush()
	}
	if ev := cfg.Events; ev != nil {
		t := res.SimTime
		r.attackLane.set(ev, false, t, map[string]float64{"truncated": 1})
		r.guardLane.set(ev, false, t, map[string]float64{"truncated": 1})
		if cfg.Monitor != nil {
			cfg.Monitor.FinishEvents(t)
		}
		scenario := cfg.EventScope + "scenario"
		if r.err != nil {
			ev.Instant(events.CatScenario, scenario, "cancelled", t, nil)
		}
		if res.Diverged {
			ev.Instant(events.CatScenario, scenario, "diverged", t, nil)
		}
		if res.Finished {
			ev.Instant(events.CatScenario, scenario, "finished", t, nil)
		}
		ev.End(events.CatScenario, scenario, r.scenarioName, t, map[string]float64{
			"steps":        float64(res.Steps),
			"max_true_cte": res.MaxTrueCTE,
			"violations":   float64(len(res.Violations)),
		})
	}
	if cfg.Obs != nil {
		r.stepsCtr.Add(int64(res.Steps - r.pubSteps))
		if elapsed := time.Since(r.wallStart).Seconds(); elapsed > 0 {
			cfg.Obs.Gauge("sim.steps_per_sec").Set(float64(res.Steps) / elapsed)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return res, nil
}

// delivery is one sensor's path into fusion: the component-fault hook,
// then the attack channel (a hardware fault happens upstream of any
// adversarial manipulation). Either stage may be absent, and either may
// drop the reading.
type delivery[R any] struct {
	fault, attack func(R, float64) (R, bool)
}

func newDelivery[R any](fault func(R, float64) (R, bool), attack interface {
	Apply(R, float64) (R, bool)
}) delivery[R] {
	d := delivery[R]{fault: fault}
	if attack != nil {
		d.attack = attack.Apply
	}
	return d
}

// deliver passes a reading observed at t through both stages; ok is false
// when either dropped it.
func (d delivery[R]) deliver(m R, t float64) (R, bool) {
	ok := true
	if d.fault != nil {
		if m, ok = d.fault(m, t); !ok {
			return m, false
		}
	}
	if d.attack != nil {
		m, ok = d.attack(m, t)
	}
	return m, ok
}

// lane is one on/off track of the run's event timeline (the attack
// window, the guard's fallback): a span opens when it turns on and closes
// when it turns off.
type lane struct {
	cat         events.Category
	track, name string
	attrs       map[string]float64 // attached to every Begin
	open        bool
}

// set turns the lane on or off at t, emitting a Begin or an End (with
// endAttrs) only when that changes its state.
func (l *lane) set(ev *events.Recorder, on bool, t float64, endAttrs map[string]float64) {
	if on == l.open {
		return
	}
	l.open = on
	if on {
		ev.Begin(l.cat, l.track, l.name, t, l.attrs)
	} else {
		ev.End(l.cat, l.track, l.name, t, endAttrs)
	}
}
