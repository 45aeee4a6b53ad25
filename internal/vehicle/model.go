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
// low-speed waypoint-following studies.
type Kinematic struct {
	p Params
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

// applyActuators realises the commanded steer/accel through saturation,
// slew limiting and first-order lag, returning the realised values.
func applyActuators(p Params, s State, cmd Command, dt float64) (steer, accel float64) {
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
	steer = steerCmd
	if p.SteerTimeConstant > 0 {
		alpha := 1 - math.Exp(-dt/p.SteerTimeConstant)
		steer = s.Steer + (steerCmd-s.Steer)*alpha
	}
	// Slew limit.
	maxDelta := p.MaxSteerRate * dt
	steer = geom.Clamp(steer, s.Steer-maxDelta, s.Steer+maxDelta)
	steer = geom.Clamp(steer, -p.MaxSteer, p.MaxSteer)

	accel = accelCmd
	if p.AccelTimeConstant > 0 {
		alpha := 1 - math.Exp(-dt/p.AccelTimeConstant)
		accel = s.Accel + (accelCmd-s.Accel)*alpha
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
	steer, accel := applyActuators(p, s, cmd, dt)

	v0 := s.Speed
	v1 := geom.Clamp(v0+accel*dt, 0, p.MaxSpeed)
	vMid := (v0 + v1) / 2
	yawRate := vMid * math.Tan(steer) / p.Wheelbase
	thMid := s.Heading + yawRate*dt/2

	next := State{
		X:       s.X + vMid*math.Cos(thMid)*dt,
		Y:       s.Y + vMid*math.Sin(thMid)*dt,
		Heading: geom.NormalizeAngle(s.Heading + yawRate*dt),
		Speed:   v1,
		YawRate: yawRate,
		Accel:   accel,
		Steer:   steer,
	}
	return next
}
