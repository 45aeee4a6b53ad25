package mutate

import (
	"context"
	"fmt"
	"math"

	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/fusion"
	"adassure/internal/geom"
	"adassure/internal/obs"
	"adassure/internal/sensors"
	"adassure/internal/sim"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// Window bounds a sensor or actuator mutant's activation interval in
// simulated seconds, [Start, End).
type Window struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Probe is one campaign run: a built-in track driven under the assertion
// catalog (ground truth included), pristine or with one mutant installed.
// It is the one place the mutation and search campaigns lower a run to a
// sim.Config.
type Probe struct {
	Track      *track.Track
	Controller string
	Seed       int64
	Duration   float64
	// Assertions restricts the monitor to a catalog subset (nil: the whole
	// catalog).
	Assertions []string
	// Mutant, when non-nil, is installed into the run: controller mutants
	// wrap the controllers, sensor and actuator mutants become the run's
	// fault hooks. Nil runs the pristine baseline.
	Mutant *Spec
	// Window, when non-nil, gates a sensor or actuator mutant to
	// [Start, End); outside it readings and commands pass untouched.
	Window *Window
	// Obs, Events and EventScope pass through to the simulator.
	Obs        *obs.Registry
	Events     *events.Recorder
	EventScope string
}

// Run executes the probe, cancelled by ctx, and returns the fired
// assertion IDs in catalog order (core.Monitor.FiredIDs keeps the catalog
// monitor's registration order) along with the simulation result. Probe
// runs record no trace: no campaign reads one, and the NaN-leak mutant
// emits non-finite commands. The mutant's hooks hold per-run state, so
// every call builds fresh ones.
func (p Probe) Run(ctx context.Context) ([]string, *sim.Result, error) {
	mon, err := core.NewCatalogMonitorWith(core.CatalogConfig{IncludeGroundTruth: true}, p.Assertions)
	if err != nil {
		return nil, nil, err
	}
	cfg := sim.Config{
		Track:      p.Track,
		Controller: p.Controller,
		Seed:       p.Seed,
		Duration:   p.Duration,
		Monitor:    mon,
		Obs:        p.Obs,
		Events:     p.Events,
		EventScope: p.EventScope,
		Context:    ctx,
	}
	if p.Mutant != nil {
		spec, err := p.Mutant.Canonicalize()
		if err != nil {
			return nil, nil, err
		}
		switch {
		case spec.Kind() != KindController:
			cfg.Faults = buildFaults(spec)
			if p.Window != nil {
				gate(cfg.Faults, *p.Window)
			}
		case p.Window != nil:
			return nil, nil, fmt.Errorf("mutate: controller mutant %q cannot be windowed", spec.ID())
		case spec.Op == OpSatRemove:
			cfg.WrapSpeed = func(inner control.Longitudinal) control.Longitudinal {
				return newUnsaturatedSpeed(inner)
			}
		default:
			cfg.WrapLateral = func(inner control.Lateral) control.Lateral {
				return &mutatedLateral{inner: inner, spec: spec}
			}
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return mon.FiredIDs(), res, nil
}

// gate restricts a fault set's hooks to w. The hooks keep their own
// state, so a latency queue simply stops advancing outside the window.
func gate(fs *sim.FaultSet, w Window) {
	fs.GNSS = gated(fs.GNSS, w)
	fs.IMU = gated(fs.IMU, w)
	fs.Odom = gated(fs.Odom, w)
	if f := fs.Actuator; f != nil {
		fs.Actuator = func(cmd vehicle.Command, t float64) vehicle.Command {
			if t < w.Start || t >= w.End {
				return cmd
			}
			return f(cmd, t)
		}
	}
}

// gated is one sensor hook restricted to w: outside it the reading is
// delivered untouched.
func gated[R any](f func(R, float64) (R, bool), w Window) func(R, float64) (R, bool) {
	if f == nil {
		return nil
	}
	return func(r R, t float64) (R, bool) {
		if t < w.Start || t >= w.End {
			return r, true
		}
		return f(r, t)
	}
}

// mutatedLateral wraps a pristine lateral controller and perturbs its
// input estimate, its reference, or its output command according to the
// mutant operator. One instance serves one run.
type mutatedLateral struct {
	inner control.Lateral
	spec  Spec

	t       float64 // accumulated control time since Reset
	steps   int
	ref     control.Reference // what inner is handed this step
	held    fusion.Estimate   // frozen-input latch, with
	heldRef control.Reference // the reference of that estimate
	heldAt  float64
	hasHeld bool
}

// Name implements control.Lateral.
func (m *mutatedLateral) Name() string { return m.inner.Name() + "+" + m.spec.ID() }

// Reset implements control.Lateral.
func (m *mutatedLateral) Reset() {
	m.inner.Reset()
	m.t, m.steps, m.hasHeld = 0, 0, false
}

// Steer implements control.Lateral.
func (m *mutatedLateral) Steer(est fusion.Estimate, path geom.Path, dt float64) float64 {
	m.t += dt
	m.steps++
	m.ref = *control.AsReference(path)

	// Input-side mutations.
	switch m.spec.Op {
	case OpFrozenInput:
		if !m.hasHeld || m.t-m.heldAt >= m.spec.Param {
			m.held, m.heldRef, m.heldAt, m.hasHeld = est, m.ref, m.t, true
		}
		est, m.ref = m.held, m.heldRef
	case OpHeadingDrop:
		est.Pose.Heading = m.ref.HeadingAt(m.ref.S)
		m.ref = control.NewReference(m.ref.Path, est, m.ref.S, m.ref.CTE, 0)
	case OpLookaheadSkip:
		m.ref = control.NewReference(m.ref.Path, est, m.ref.S, m.ref.CTE, m.spec.Param)
	}

	raw := m.inner.Steer(est, &m.ref, dt)

	// Output-side mutations.
	switch m.spec.Op {
	case OpGainFlip:
		raw = -raw
	case OpGainScale:
		raw *= m.spec.Param
	case OpNaNLeak:
		if m.steps%int(m.spec.Param) == 0 {
			raw = math.NaN()
		}
	}
	return raw
}

// unsaturatedSpeed is the pristine speed PID with both saturations
// deleted: the anti-windup clamp on the integrator and the output
// acceleration clamp are opened to ±Inf, so the only behavioural
// difference is the missing clamps.
type unsaturatedSpeed struct {
	*control.SpeedPID
	name string
}

func newUnsaturatedSpeed(inner control.Longitudinal) *unsaturatedSpeed {
	pid := control.NewSpeedPID(vehicle.Params{MaxAccel: math.Inf(1), MaxBrake: math.Inf(1)})
	pid.IntegralLimit = math.Inf(1)
	return &unsaturatedSpeed{pid, inner.Name() + "+" + OpSatRemove}
}

// Name implements control.Longitudinal.
func (c *unsaturatedSpeed) Name() string { return c.name }

// buildFaults constructs the FaultSet of a sensor/actuator mutant. Each
// call builds fresh closures (latency queues, stuck-at latches), so the
// returned set belongs to exactly one run.
func buildFaults(spec Spec) *sim.FaultSet {
	switch spec.Op {
	case OpGNSSDropout:
		onset := spec.Param
		return &sim.FaultSet{GNSS: func(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
			return fix, t < onset
		}}
	case OpGNSSLatency:
		// Stateful delay line, mirroring the standard delay attack: fixes
		// queue for Param seconds and are released (at most one per
		// incoming poll) once due, so delivered content is stale and the
		// stream opens with a silent gap while the pipeline fills.
		extra := spec.Param
		var queue []sensors.GNSSFix
		return &sim.FaultSet{GNSS: func(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
			fix.T += extra
			queue = append(queue, fix)
			if queue[0].T <= t {
				out := queue[0]
				queue = queue[1:]
				return out, true
			}
			return fix, false
		}}
	case OpGNSSQuantize:
		q := spec.Param
		return &sim.FaultSet{GNSS: func(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
			fix.Pos.X = math.Round(fix.Pos.X/q) * q
			fix.Pos.Y = math.Round(fix.Pos.Y/q) * q
			return fix, true
		}}
	case OpOdomStuck:
		onset := spec.Param
		var held float64
		var has bool
		return &sim.FaultSet{Odom: func(r sensors.OdomReading, t float64) (sensors.OdomReading, bool) {
			if t >= onset {
				if !has {
					held, has = r.Speed, true
				}
				r.Speed = held // timestamp stays fresh: stuck-at, not stale
			}
			return r, true
		}}
	case OpSteerStuck:
		onset := spec.Param
		var held float64
		var has bool
		return &sim.FaultSet{Actuator: func(cmd vehicle.Command, t float64) vehicle.Command {
			if t >= onset {
				if !has {
					held, has = cmd.Steer, true
				}
				cmd.Steer = held
			}
			return cmd
		}}
	}
	return nil
}
