// Package mutate is the deterministic fault-injection and mutation-testing
// engine: it defines a catalog of controller-level mutants and
// sensor/actuator fault models, applies exactly one mutant per simulation
// run via wrappers around the pristine internal/control and
// internal/sensors pipelines, fans the mutant × track grid across the
// runner pool, and scores the ADAssure assertion catalog by which mutants
// each assertion kills (kill matrix, per-mutant detection latency, ranked
// surviving-mutant report). A mutant is "killed" by an assertion when the
// assertion fires on the mutated run but not on the pristine baseline of
// the same track and seed, so assertions that legitimately fire on a clean
// run can never claim a kill, and the identity mutant survives by
// construction unless the wrapper itself perturbs the loop.
package mutate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Kind classifies where in the stack a mutant interposes.
type Kind string

const (
	// KindController mutants wrap the control algorithms.
	KindController Kind = "controller"
	// KindSensor mutants corrupt a sensor channel upstream of fusion.
	KindSensor Kind = "sensor"
	// KindActuator mutants corrupt the executed command downstream of the
	// monitor.
	KindActuator Kind = "actuator"
)

// Operator names. Each is one fault class; the parameter (where the
// operator takes one) selects the severity/onset within the class.
const (
	// OpIdentity is the no-op mutant: the wrapper is installed but changes
	// nothing. It is the engine's false-positive guard — any assertion
	// that kills it is reacting to the instrumentation, not to a fault.
	OpIdentity = "identity"
	// OpGainFlip negates the steering command (sign error in the control
	// law — the classic "+= vs -=" mutation).
	OpGainFlip = "ctrl-gain-flip"
	// OpGainScale multiplies the steering command by Param (mistuned or
	// unit-confused gain; >1 overdrives, <1 underdrives).
	OpGainScale = "ctrl-gain-scale"
	// OpSatRemove removes the longitudinal controller's saturation: both
	// the PID anti-windup clamp and the output acceleration clamp
	// (deleted-clamp mutation; the integrator winds up and the commanded
	// accel leaves the comfort envelope).
	OpSatRemove = "ctrl-sat-remove"
	// OpFrozenInput refreshes the controller's localization input and its
	// reference only every Param seconds (stale-state bug: the controller
	// acts on a frozen estimate between refreshes).
	OpFrozenInput = "ctrl-frozen-input"
	// OpLookaheadSkip advances the reference's arc position, and any the
	// controller projects itself, by Param metres (off-by-N
	// waypoint-indexing bug in the follower).
	OpLookaheadSkip = "ctrl-lookahead-skip"
	// OpNaNLeak makes every Param-th steering command NaN (uninitialised
	// value / division-by-zero leak on a periodic code path).
	OpNaNLeak = "ctrl-nan-leak"
	// OpHeadingDrop replaces the estimate's heading with the path tangent
	// at the reference's arc position (dropped heading-error correction:
	// the controller believes it is always aligned with the road).
	OpHeadingDrop = "ctrl-heading-drop"
	// OpGNSSDropout drops every GNSS fix from t = Param seconds on.
	OpGNSSDropout = "sense-gnss-dropout"
	// OpGNSSLatency delays every GNSS fix by Param seconds (stale content
	// delivered late, plus a silent gap while the pipeline fills).
	OpGNSSLatency = "sense-gnss-latency"
	// OpGNSSQuantize snaps GNSS positions to a Param-metre grid
	// (catastrophic loss of resolution, e.g. a truncated fixed-point
	// conversion).
	OpGNSSQuantize = "sense-gnss-quantize"
	// OpOdomStuck freezes the reported wheel speed at its t = Param value
	// (stuck-at sensor fault with fresh timestamps).
	OpOdomStuck = "sense-odom-stuck"
	// OpSteerStuck freezes the executed steering at its t = Param value
	// while the controller keeps commanding normally (seized actuator).
	OpSteerStuck = "act-steer-stuck"
)

// opInfo is one operator's registry entry.
type opInfo struct {
	kind    Kind
	noParam bool    // operator takes no parameter (Param must be 0)
	def     float64 // default when Param is 0
	min     float64 // inclusive bounds for the canonical parameter
	max     float64
	integer bool   // parameter is rounded to the nearest integer
	unit    string // parameter unit, for documentation
	desc    string
}

// ops is the operator registry. Parameter minima are strictly positive so
// "Param == 0 means the default" is unambiguous.
var ops = map[string]opInfo{
	OpIdentity:      {kind: KindController, noParam: true, desc: "no-op wrapper (false-positive guard)"},
	OpGainFlip:      {kind: KindController, noParam: true, desc: "steering command negated"},
	OpGainScale:     {kind: KindController, def: 3, min: 0.05, max: 20, unit: "×", desc: "steering command scaled by Param"},
	OpSatRemove:     {kind: KindController, noParam: true, desc: "longitudinal anti-windup and output saturation removed"},
	OpFrozenInput:   {kind: KindController, def: 1, min: 0.1, max: 10, unit: "s", desc: "localization input refreshed only every Param s"},
	OpLookaheadSkip: {kind: KindController, def: 8, min: 0.5, max: 20, unit: "m", desc: "path projection advanced by Param m"},
	OpNaNLeak:       {kind: KindController, def: 2, min: 2, max: 50, integer: true, unit: "steps", desc: "every Param-th steering command is NaN"},
	OpHeadingDrop:   {kind: KindController, noParam: true, desc: "estimate heading replaced by path tangent"},
	OpGNSSDropout:   {kind: KindSensor, def: 15, min: 0.5, max: 1000, unit: "s", desc: "all GNSS fixes dropped from t = Param s"},
	OpGNSSLatency:   {kind: KindSensor, def: 0.8, min: 0.05, max: 10, unit: "s", desc: "GNSS fixes delivered Param s late"},
	OpGNSSQuantize:  {kind: KindSensor, def: 2.5, min: 0.05, max: 100, unit: "m", desc: "GNSS positions snapped to a Param m grid"},
	OpOdomStuck:     {kind: KindSensor, def: 2, min: 0.5, max: 1000, unit: "s", desc: "wheel-speed reading frozen from t = Param s"},
	OpSteerStuck:    {kind: KindActuator, def: 12, min: 0.5, max: 1000, unit: "s", desc: "executed steering frozen from t = Param s"},
}

// OpNames returns every operator name in sorted order.
func OpNames() []string {
	names := make([]string, 0, len(ops))
	for n := range ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OpKind returns the Kind of an operator ("" for unknown operators).
func OpKind(op string) Kind {
	return ops[op].kind
}

// OpRange returns the canonical parameter bounds of an operator. ok is
// false for unknown operators and for operators that take no parameter —
// callers that sweep or search a magnitude axis (internal/search) have no
// axis to move on those.
func OpRange(op string) (min, max float64, ok bool) {
	info, exists := ops[op]
	if !exists || info.noParam {
		return 0, 0, false
	}
	return info.min, info.max, true
}

// Spec identifies one mutant: an operator plus one numeric parameter.
// Param == 0 selects the operator's default; operators marked "no
// parameter" require Param == 0. The JSON form is the wire format of the
// /v1/mutate endpoint and the -json CLI output.
type Spec struct {
	Op    string  `json:"op"`
	Param float64 `json:"param,omitempty"`
}

// Canonicalize validates the spec and resolves the parameter default, so
// equivalent specs collapse onto one identity. It is idempotent: the
// canonical form of a canonical spec is itself. The receiver is not
// mutated.
func (s Spec) Canonicalize() (Spec, error) {
	info, ok := ops[s.Op]
	if !ok {
		return s, fmt.Errorf("mutate: unknown operator %q (have %v)", s.Op, OpNames())
	}
	if info.noParam {
		if s.Param != 0 {
			return s, fmt.Errorf("mutate: operator %q takes no parameter, got %g", s.Op, s.Param)
		}
		return s, nil
	}
	if s.Param == 0 {
		s.Param = info.def
	}
	if math.IsNaN(s.Param) || math.IsInf(s.Param, 0) {
		return s, fmt.Errorf("mutate: operator %q parameter must be finite, got %g", s.Op, s.Param)
	}
	if info.integer {
		s.Param = math.Round(s.Param)
	}
	if s.Param < info.min || s.Param > info.max {
		return s, fmt.Errorf("mutate: operator %q parameter %g outside [%g, %g] %s",
			s.Op, s.Param, info.min, info.max, info.unit)
	}
	return s, nil
}

// Kind reports where the mutant interposes.
func (s Spec) Kind() Kind { return ops[s.Op].kind }

// ID is the canonical display identity of a (canonical) spec:
// "ctrl-gain-scale(3)", "identity". Two canonical specs are the same
// mutant iff their IDs are equal.
func (s Spec) ID() string {
	if ops[s.Op].noParam {
		return s.Op
	}
	return s.Op + "(" + strconv.FormatFloat(s.Param, 'g', -1, 64) + ")"
}

// DefaultCatalog returns the default mutant grid: the identity guard
// first, then every controller mutant, then the sensor/actuator fault
// models. All entries are canonical.
func DefaultCatalog() []Spec {
	return []Spec{
		{Op: OpIdentity},
		{Op: OpGainFlip},
		{Op: OpGainScale, Param: 3},
		{Op: OpGainScale, Param: 0.25},
		{Op: OpSatRemove},
		{Op: OpFrozenInput, Param: 1},
		{Op: OpLookaheadSkip, Param: 8},
		{Op: OpNaNLeak, Param: 2},
		{Op: OpHeadingDrop},
		{Op: OpGNSSDropout, Param: 15},
		{Op: OpGNSSLatency, Param: 0.8},
		{Op: OpGNSSQuantize, Param: 2.5},
		// Sub-noise-floor quantization: invisible to every amplitude-based
		// check, this was the default grid's demonstration survivor until
		// the A15 lattice detector (motivated by the internal/search evasion
		// frontier, experiment S1) closed the gap.
		{Op: OpGNSSQuantize, Param: 0.25},
		{Op: OpOdomStuck, Param: 2},
		{Op: OpSteerStuck, Param: 12},
	}
}
