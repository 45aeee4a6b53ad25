package vehicle

import (
	"fmt"
	"math"

	"adassure/internal/geom"
)

// Kinematic is the rear-axle kinematic bicycle model:
//
//	ẋ = v cos θ, ẏ = v sin θ, θ̇ = v tan(δ)/L, v̇ = a
//
// with first-order actuator lags and rate/magnitude saturation applied to
// the commanded steering and acceleration. It is the standard plant for
// low-speed waypoint-following studies. A Kinematic caches its actuator
// lags' smoothing factors, so it is not safe for concurrent use.
type Kinematic struct {
	p Params
	// lagDt is the step the smoothing factors steerAlpha and accelAlpha,
	// 1 − exp(−dt/τ), were computed for (0: none yet; Step rejects it).
	lagDt, steerAlpha, accelAlpha float64
}

// NewKinematic builds a kinematic bicycle model. It panics on invalid
// parameters — model construction is programmer-controlled configuration,
// not runtime input.
func NewKinematic(p Params) *Kinematic {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Kinematic{p: p}
}

// lagAlphas returns the steering and acceleration lags' smoothing factors
// for dt. The run's step is fixed, so they are computed once and again only
// when dt differs; a NaN dt equals nothing and is recomputed every time.
func (m *Kinematic) lagAlphas(dt float64) (steer, accel float64) {
	if dt != m.lagDt {
		m.lagDt = dt
		m.steerAlpha = 1 - math.Exp(-dt/m.p.SteerTimeConstant)
		m.accelAlpha = 1 - math.Exp(-dt/m.p.AccelTimeConstant)
	}
	return m.steerAlpha, m.accelAlpha
}

// applyActuators realises the commanded steer/accel through saturation,
// slew limiting and first-order lag, returning the realised values.
func (m *Kinematic) applyActuators(s State, cmd Command, dt float64) (steer, accel float64) {
	p := &m.p
	// Sanitise non-finite commands to safe values (hold steering, brake).
	steerCmd := cmd.Steer
	if math.IsNaN(steerCmd) || math.IsInf(steerCmd, 0) {
		steerCmd = s.Steer
	}
	accelCmd := cmd.Accel
	if math.IsNaN(accelCmd) || math.IsInf(accelCmd, 0) {
		accelCmd = -p.MaxBrake
	}
	steerCmd = geom.Clamp(steerCmd, -p.MaxSteer, p.MaxSteer)
	accelCmd = geom.Clamp(accelCmd, -p.MaxBrake, p.MaxAccel)

	// First-order lag toward the command.
	steerAlpha, accelAlpha := m.lagAlphas(dt)
	steer = steerCmd
	if p.SteerTimeConstant > 0 {
		steer = s.Steer + (steerCmd-s.Steer)*steerAlpha
	}
	// Slew limit.
	maxDelta := p.MaxSteerRate * dt
	steer = geom.Clamp(steer, s.Steer-maxDelta, s.Steer+maxDelta)
	steer = geom.Clamp(steer, -p.MaxSteer, p.MaxSteer)

	accel = accelCmd
	if p.AccelTimeConstant > 0 {
		accel = s.Accel + (accelCmd-s.Accel)*accelAlpha
	}
	accel = geom.Clamp(accel, -p.MaxBrake, p.MaxAccel)
	return steer, accel
}

// Step integrates the state forward by dt seconds under cmd using RK2
// (midpoint) integration of the kinematic equations, which keeps circular
// arcs accurate at simulator step sizes. dt must be positive.
func (m *Kinematic) Step(s State, cmd Command, dt float64) State {
	if dt <= 0 {
		panic(fmt.Sprintf("vehicle: non-positive dt %g", dt))
	}
	p := m.p
	steer, accel := m.applyActuators(s, cmd, dt)

	v0 := s.Speed
	v1 := geom.Clamp(v0+accel*dt, 0, p.MaxSpeed)
	vMid := (v0 + v1) / 2
	yawRate := vMid * math.Tan(steer) / p.Wheelbase
	thMid := s.Heading + yawRate*dt/2
	sin, cos := geom.Sincos(thMid)

	next := State{
		X:       s.X + vMid*cos*dt,
		Y:       s.Y + vMid*sin*dt,
		Heading: geom.NormalizeAngle(s.Heading + yawRate*dt),
		Speed:   v1,
		YawRate: yawRate,
		Accel:   accel,
		Steer:   steer,
	}
	return next
}
