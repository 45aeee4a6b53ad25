// Package vehicle models the ego vehicle: parameter sets, the kinematic
// bicycle model, and actuator dynamics (steering/throttle lag and rate
// limits). This is the plant the ADAssure methodology debugs controllers
// against; it substitutes for the physical shuttle platform the original
// study drove on a test track.
package vehicle

import (
	"fmt"
	"math"
)

// Params describes a vehicle's geometry and limits.
// The default set approximates a low-speed autonomous shuttle
// (iseAuto-class: short wheelbase, modest speed envelope).
type Params struct {
	// Wheelbase is the front-to-rear axle distance in metres.
	Wheelbase float64
	// MaxSteer is the steering-angle magnitude limit in radians.
	MaxSteer float64
	// MaxSteerRate is the steering slew-rate limit in rad/s.
	MaxSteerRate float64
	// MaxSpeed is the speed envelope in m/s.
	MaxSpeed float64
	// MaxAccel is the maximum forward acceleration in m/s².
	MaxAccel float64
	// MaxBrake is the maximum deceleration magnitude in m/s².
	MaxBrake float64
	// MaxLatAccel is the comfort/safety lateral-acceleration bound in m/s².
	MaxLatAccel float64
	// MaxJerk is the longitudinal jerk bound in m/s³ used by the planner
	// and the comfort assertions.
	MaxJerk float64

	// SteerTimeConstant is the first-order steering-actuator lag in
	// seconds (0 disables the lag).
	SteerTimeConstant float64
	// AccelTimeConstant is the first-order drivetrain lag in seconds.
	AccelTimeConstant float64
}

// ShuttleParams returns the default parameter set: a low-speed autonomous
// shuttle similar to the platform class evaluated by the original study.
func ShuttleParams() Params {
	return Params{
		Wheelbase:         2.8,
		MaxSteer:          0.55, // ~31.5°
		MaxSteerRate:      0.8,
		MaxSpeed:          8.0, // ~29 km/h shuttle envelope
		MaxAccel:          1.5,
		MaxBrake:          3.0,
		MaxLatAccel:       2.5,
		MaxJerk:           2.0,
		SteerTimeConstant: 0.15,
		AccelTimeConstant: 0.25,
	}
}

// SedanParams returns a faster passenger-car parameter set used by the
// controller-comparison experiments to expose speed-dependent weaknesses.
func SedanParams() Params {
	return Params{
		Wheelbase:         2.7,
		MaxSteer:          0.52,
		MaxSteerRate:      1.2,
		MaxSpeed:          25.0,
		MaxAccel:          3.0,
		MaxBrake:          6.0,
		MaxLatAccel:       4.0,
		MaxJerk:           4.0,
		SteerTimeConstant: 0.1,
		AccelTimeConstant: 0.2,
	}
}

// Validate checks the parameter set for physical plausibility.
func (p Params) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{p.Wheelbase > 0, "wheelbase must be positive"},
		{p.MaxSteer > 0 && p.MaxSteer < math.Pi/2, "max steer must be in (0, π/2)"},
		{p.MaxSteerRate > 0, "max steer rate must be positive"},
		{p.MaxSpeed > 0, "max speed must be positive"},
		{p.MaxAccel > 0, "max accel must be positive"},
		{p.MaxBrake > 0, "max brake must be positive"},
		{p.MaxLatAccel > 0, "max lateral accel must be positive"},
		{p.MaxJerk > 0, "max jerk must be positive"},
		{p.SteerTimeConstant >= 0, "steer time constant must be non-negative"},
		{p.AccelTimeConstant >= 0, "accel time constant must be non-negative"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("vehicle: invalid params: %s", c.what)
		}
	}
	return nil
}

// MinTurnRadius returns the minimum kinematic turning radius.
func (p Params) MinTurnRadius() float64 {
	return p.Wheelbase / math.Tan(p.MaxSteer)
}

// State is the full ground-truth state of the vehicle.
type State struct {
	X, Y    float64 // position, m
	Heading float64 // yaw, rad, normalised to (-π, π]
	Speed   float64 // longitudinal speed, m/s (≥ 0 in this simulator)
	YawRate float64 // rad/s
	Accel   float64 // realised longitudinal acceleration, m/s²
	Steer   float64 // realised steering angle at the wheels, rad
}

// Command is a controller's output for one step.
type Command struct {
	Steer float64 // desired steering angle, rad
	Accel float64 // desired longitudinal acceleration, m/s²
}
