// Package control implements the driving-control algorithms under debug:
// four lateral controllers (Pure Pursuit, Stanley, lateral PID, and an
// LQR-based linear MPC) and a longitudinal PID speed controller. Each
// lateral controller has a distinct, well-known weakness signature that the
// ADAssure assertion catalog is designed to surface — corner-cutting for
// Pure Pursuit, high-speed oscillation for Stanley, phase lag for PID —
// which is the substance of the debugging methodology.
package control

import (
	"fmt"
	"math"
	"sync"

	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/vehicle"
)

// Lateral computes a steering command from the localization estimate and
// the reference the run computed for it. Implementations keep internal
// state (integrators, previous errors) and are reset per run.
type Lateral interface {
	// Name identifies the controller in reports.
	Name() string
	// Steer returns the desired steering angle in radians for est. ref
	// must be a *Reference (see AsReference), valid for the call only and
	// typed geom.Path so that wrappers pass it through; dt is the period.
	Steer(est fusion.Estimate, ref geom.Path, dt float64) float64
	// Reset clears internal state for a fresh run.
	Reset()
}

// Reference is the path and the run's projection of the estimate onto it:
// arc position S, signed cross-track error CTE (positive = left), heading
// error (estimate minus tangent at S) and curvature at S.
type Reference struct {
	geom.Path
	S, CTE, HeadingErr, Kappa float64
	// Shift, zero but under an off-by-N indexing mutant, is already in S;
	// a controller that projects a point itself adds it to that arc too.
	Shift float64
}

// NewReference is the reference of est projected onto path at (s, cte),
// s advanced by shift; the simulator and the mutants build every one.
func NewReference(path geom.Path, est fusion.Estimate, s, cte, shift float64) Reference {
	s += shift
	return Reference{path, s, cte, geom.AngleDiff(est.Pose.Heading, path.HeadingAt(s)), path.CurvatureAt(s), shift}
}

// AsReference returns the *Reference a Lateral's Steer was handed, and
// panics naming that contract if ref is any other Path.
func AsReference(ref geom.Path) *Reference {
	if r, ok := ref.(*Reference); ok {
		return r
	}
	panic(fmt.Sprintf("control: Lateral.Steer needs a *control.Reference, got %T", ref))
}

// PurePursuit is the classic geometric path tracker: steer toward a point
// a speed-scaled lookahead distance ahead on the path.
//
// Known weakness (surfaced by assertion A2 on tight curvature): the chord
// to the lookahead point cuts corners, so cross-track error grows with
// curvature and lookahead distance.
type PurePursuit struct {
	params vehicle.Params
}

// Pure-pursuit tuning: the lookahead distance is ppLookaheadGain·v,
// floored at ppMinLookahead metres.
const ppLookaheadGain, ppMinLookahead = 0.8, 2.5

// NewPurePursuit builds a pure-pursuit controller with standard tuning.
func NewPurePursuit(p vehicle.Params) *PurePursuit {
	return &PurePursuit{params: p}
}

// Name implements Lateral.
func (c *PurePursuit) Name() string { return "pure-pursuit" }

// Reset implements Lateral.
func (c *PurePursuit) Reset() {}

// Steer implements Lateral.
func (c *PurePursuit) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	ref := AsReference(path)
	ld := math.Max(ppMinLookahead, ppLookaheadGain*est.Speed)
	target := ref.PointAt(ref.S + ld)
	// Angle to target in the body frame.
	local := est.Pose.TransformTo(target)
	dist := local.Norm()
	if dist < 1e-6 {
		return 0
	}
	alpha := math.Atan2(local.Y, local.X)
	// Pure-pursuit law: δ = atan(2 L sin α / Ld).
	return math.Atan2(2*c.params.Wheelbase*math.Sin(alpha), dist)
}

const frontWindow = 15 // m either side of S where Stanley's front axle projects

// Stanley is the Stanley front-axle controller: heading error plus
// arctangent cross-track correction.
//
// Known weakness (surfaced by assertion A11): the cross-track term's gain
// effectively grows with 1/v — at higher speed the correction lags and the
// controller oscillates, especially with noisy localization.
type Stanley struct {
	params vehicle.Params
}

// Stanley tuning: the cross-track gain k in atan(k·e / (v + soft)), and
// the softening that regularises the low-speed division.
const stanleyGain, stanleySoft = 1.8, 1.0

// NewStanley builds a Stanley controller with standard tuning.
func NewStanley(p vehicle.Params) *Stanley {
	return &Stanley{params: p}
}

// Name implements Lateral.
func (c *Stanley) Name() string { return "stanley" }

// Reset implements Lateral.
func (c *Stanley) Reset() {}

// Steer implements Lateral.
func (c *Stanley) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	// Project the front axle on the reference's branch, shifted like S.
	ref := AsReference(path)
	front := est.Pose.Pos.Add(est.Pose.Forward().Scale(c.params.Wheelbase))
	s0 := ref.S - ref.Shift
	s, cte := ref.ProjectRange(front, s0-frontWindow, s0+frontWindow)
	headingErr := geom.AngleDiff(ref.HeadingAt(s+ref.Shift), est.Pose.Heading)
	// cte sign: positive = vehicle left of path; steer right (negative).
	cross := math.Atan2(stanleyGain*-cte, est.Speed+stanleySoft)
	return headingErr + cross
}

// PIDLateral steers proportionally to cross-track error with integral and
// derivative terms, plus a curvature feedforward.
//
// Known weakness: pure error feedback reacts after the error exists; the
// integrator winds up under a sustained spoof-induced offset, producing a
// slow, persistent bias (surfaced by A2/A8 in combination).
type PIDLateral struct {
	params     vehicle.Params
	integral   float64
	derivState float64
}

// Lateral PID tuning. pidIntegralLimit clamps the integrator
// (anti-windup); pidDerivAlpha low-pass filters the derivative term
// (0..1, 1 = raw), since the raw derivative amplifies localization noise
// unusably. pidDesignSpeed is the speed the gains are tuned at: the
// effective loop gain of the lateral error dynamics grows with speed, so
// the output is scheduled by pidDesignSpeed/v above it.
const (
	pidKp, pidKi, pidKd = 0.4, 0.02, 0.5
	pidIntegralLimit    = 2.0
	pidDerivAlpha       = 0.35
	pidDesignSpeed      = 3.0
)

// NewPIDLateral builds a lateral PID controller with standard tuning.
func NewPIDLateral(p vehicle.Params) *PIDLateral {
	return &PIDLateral{params: p}
}

// Name implements Lateral.
func (c *PIDLateral) Name() string { return "pid-lateral" }

// Reset implements Lateral.
func (c *PIDLateral) Reset() {
	c.integral = 0
	c.derivState = 0
}

// Steer implements Lateral.
func (c *PIDLateral) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	ref := AsReference(path)
	err := -ref.CTE // steer right when left of path
	c.integral = geom.Clamp(c.integral+err*dt, -pidIntegralLimit, pidIntegralLimit)
	// Derivative of the cross-track error, computed geometrically
	// (ė = v·sin θe) rather than by differencing the noisy measurement —
	// numeric differentiation of localization output is unusable at 20 Hz.
	raw := -est.Speed * math.Sin(ref.HeadingErr)
	c.derivState += (raw - c.derivState) * pidDerivAlpha
	// Curvature feedforward: the steady-state steering for the path arc.
	// The controller remains pure error feedback on the cross-track
	// channel — its characteristic (and its weakness: integrator windup
	// under sustained offsets).
	ff := math.Atan(ref.Kappa * c.params.Wheelbase)
	gain := 1.0
	if est.Speed > pidDesignSpeed {
		gain = pidDesignSpeed / est.Speed
	}
	return ff + gain*(pidKp*err+pidKi*c.integral+pidKd*c.derivState)
}

// LQRMPC is an unconstrained receding-horizon tracker: a discrete-time LQR
// over the lateral error dynamics [e, ė, θe, θ̇e], with the gain recomputed
// per speed bucket by backward Riccati recursion over a finite horizon —
// i.e. the analytic solution of the linear MPC problem without actuator
// constraints (constraints are enforced downstream by the plant's
// saturation).
type LQRMPC struct {
	params vehicle.Params
	gains  map[int][4]float64 // speed bucket (0.5 m/s) → gain row
}

// lqrGainKey names one solved gain row: the gains depend only on the
// vehicle and the speed bucket.
type lqrGainKey struct {
	params vehicle.Params
	bucket int
}

// lqrGains is the process-wide gain table (lqrGainKey → [4]float64), shared
// by every LQRMPC so a run re-solves no bucket an earlier run solved. Each
// controller still keeps its own map in front of it, so the per-step
// lookup touches nothing shared.
var lqrGains sync.Map

// LQR tuning: the Riccati recursion depth (control steps), the prediction
// discretisation, the penalties on [e, ė, θe, θ̇e] and the steering
// penalty.
const (
	lqrHorizon                     = 50
	lqrDt                          = 0.05
	lqrQe, lqrQde, lqrQth, lqrQdth = 1.0, 0.1, 0.8, 0.1
	lqrR                           = 6.0
)

// NewLQRMPC builds the LQR/MPC controller with standard tuning.
func NewLQRMPC(p vehicle.Params) *LQRMPC {
	return &LQRMPC{params: p, gains: make(map[int][4]float64)}
}

// Name implements Lateral.
func (c *LQRMPC) Name() string { return "lqr-mpc" }

// Reset implements Lateral.
func (c *LQRMPC) Reset() {} // gains cache is speed-keyed and run-independent

// gainFor returns the LQR gain row for a speed, cached per 0.5 m/s bucket
// in the controller and in the process-wide table.
func (c *LQRMPC) gainFor(v float64) [4]float64 {
	if v < 0.5 {
		v = 0.5
	}
	bucket := int(v / 0.5)
	if g, ok := c.gains[bucket]; ok {
		return g
	}
	key := lqrGainKey{c.params, bucket}
	shared, ok := lqrGains.Load(key)
	if !ok {
		shared, _ = lqrGains.LoadOrStore(key, c.solveRiccati(float64(bucket)*0.5+0.25))
	}
	g := shared.([4]float64)
	c.gains[bucket] = g
	return g
}

// solveRiccati performs the backward recursion for the kinematic lateral
// error model at speed v and returns K of u = -K·x. The matrices are
// row-major fixed arrays; B is 4×1 and K is 1×4, and each shares its
// row-major layout with its transpose. The products keep their
// association, (S⁻¹·BᵀP)·A and (Kᵀ·R)·K, so the gains stay bit-identical.
func (c *LQRMPC) solveRiccati(v float64) [4]float64 {
	const dt = lqrDt
	L := c.params.Wheelbase
	// Kinematic lateral error dynamics discretised:
	//   e'   = e + v·θe·dt
	//   θe'  = θe + (v/L)·δ·dt  (relative to path curvature, handled by FF)
	// Augmented with first-difference states for damping.
	A := [16]float64{
		1, dt, 0, 0,
		0, 0, v, 0,
		0, 0, 1, dt,
		0, 0, 0, 0,
	}
	B := [4]float64{0, 0, 0, v / L}
	Q := [16]float64{0: lqrQe, 5: lqrQde, 10: lqrQth, 15: lqrQdth}
	R := [1]float64{lqrR}

	P := Q
	gain := func() (K [4]float64) {
		var BtP, SinvBtP [4]float64
		var S, Sinv [1]float64
		fusion.Mul(BtP[:], B[:], P[:], 4)
		fusion.Mul(S[:], BtP[:], B[:], 4)
		S[0] += R[0]
		fusion.Inv(Sinv[:], S[:], 1)
		fusion.Mul(SinvBtP[:], Sinv[:], BtP[:], 1)
		fusion.Mul(K[:], SinvBtP[:], A[:], 4)
		return K
	}
	K := gain()
	for i := 0; i < lqrHorizon; i++ {
		// P ← sym((A−BK)ᵀ·P·(A−BK) + Q + Kᵀ·R·K).
		var BK, AmBK, AmBKT, AmBKtP, next, KtRK [16]float64
		var KtR [4]float64
		fusion.Mul(BK[:], B[:], K[:], 1)
		for j := range AmBK {
			AmBK[j] = A[j] - BK[j]
		}
		fusion.Transpose(AmBKT[:], AmBK[:], 4)
		fusion.Mul(AmBKtP[:], AmBKT[:], P[:], 4)
		fusion.Mul(next[:], AmBKtP[:], AmBK[:], 4)
		fusion.Mul(KtR[:], K[:], R[:], 1)
		fusion.Mul(KtRK[:], KtR[:], K[:], 1)
		for j := range next {
			next[j] += Q[j]
			next[j] += KtRK[j]
		}
		fusion.Symmetrize(P[:], next[:], 4)
		K = gain()
	}
	return K
}

// Steer implements Lateral.
func (c *LQRMPC) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	ref := AsReference(path)
	v := math.Max(est.Speed, 0.5)
	k := c.gainFor(v)
	// Error-state vector: [e, ė, θe, θ̇e] with rates from current kinematics.
	eDot := v * math.Sin(ref.HeadingErr)
	thDot := est.YawRate - v*ref.Kappa
	x := [4]float64{ref.CTE, eDot, ref.HeadingErr, thDot}
	var u float64
	for i := range k {
		u -= k[i] * x[i]
	}
	ff := math.Atan(ref.Kappa * c.params.Wheelbase)
	return ff + u
}

// Longitudinal computes acceleration commands tracking a target speed.
// *SpeedPID is the production implementation; the interface exists so the
// simulator can accept an instrumented or mutated wrapper without the
// pristine controller changing.
type Longitudinal interface {
	// Name identifies the controller in reports.
	Name() string
	// Accel returns the acceleration command tracking targetSpeed.
	Accel(currentSpeed, targetSpeed, dt float64) float64
	// Reset clears internal state for a fresh run.
	Reset()
}

// SpeedPID is the longitudinal controller: PI on speed error with
// anti-windup, returning an acceleration command.
type SpeedPID struct {
	// IntegralLimit clamps the integrator (anti-windup); the
	// saturation-removal mutant opens it.
	IntegralLimit float64
	integral      float64
	maxAccel      float64
	maxBrake      float64
}

var _ Longitudinal = (*SpeedPID)(nil)

// Speed PI gains.
const speedKp, speedKi = 1.2, 0.15

// NewSpeedPID builds the speed controller for a vehicle's accel envelope.
func NewSpeedPID(p vehicle.Params) *SpeedPID {
	return &SpeedPID{IntegralLimit: 2.0, maxAccel: p.MaxAccel, maxBrake: p.MaxBrake}
}

// Name identifies the controller in reports.
func (c *SpeedPID) Name() string { return "speed-pid" }

// Reset clears the integrator.
func (c *SpeedPID) Reset() { c.integral = 0 }

// Accel returns the acceleration command tracking targetSpeed.
func (c *SpeedPID) Accel(currentSpeed, targetSpeed, dt float64) float64 {
	err := targetSpeed - currentSpeed
	c.integral = geom.Clamp(c.integral+err*dt, -c.IntegralLimit, c.IntegralLimit)
	return geom.Clamp(speedKp*err+speedKi*c.integral, -c.maxBrake, c.maxAccel)
}

// All returns one instance of every lateral controller for the comparison
// experiments, in stable order.
func All(p vehicle.Params) []Lateral {
	return []Lateral{NewPurePursuit(p), NewStanley(p), NewPIDLateral(p), NewLQRMPC(p)}
}

// Names lists every lateral controller's Name, in All's order. The list
// is built once and shared: callers must not modify it.
func Names() []string { return names() }

var names = sync.OnceValue(func() []string {
	var out []string
	for _, c := range All(vehicle.ShuttleParams()) {
		out = append(out, c.Name())
	}
	return out
})

// ByName constructs a lateral controller by its Name string.
func ByName(name string, p vehicle.Params) (Lateral, error) {
	for _, c := range All(p) {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("control: unknown controller %q", name)
}
