// Package search is the adversarial attack searcher: a deterministic
// black-box optimizer that probes the assertion catalog for *minimal*
// evading attacks. Where internal/mutate scores the catalog against a
// fixed parameter grid, search moves along each attack channel's magnitude
// axis — seeded coordinate descent with geometric shrink, or a
// cross-entropy mode over magnitude × window × channel combinations — and
// converges on the evasion frontier: per track × channel, the largest
// attack the catalog misses, paired with a minimality certificate (the
// smallest detected neighbor). The frontier report is the actionable
// output of the debug loop: every nonzero frontier point is a fault class
// that needs a new or tighter assertion, and a strengthened catalog must
// show the frontier retreating.
package search

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"adassure/internal/mutate"
)

// Spec-rejection reasons. Every Canonicalize failure wraps exactly one of
// these, so callers (service validation, fuzzing) can classify rejections
// with errors.Is instead of string matching.
var (
	// ErrUnknownChannel rejects operators the mutation registry does not
	// know, and parameterless operators (identity, gain-flip, …) that have
	// no magnitude axis to search.
	ErrUnknownChannel = errors.New("unknown or unsearchable channel")
	// ErrNonFinite rejects NaN or infinite magnitude/window bounds.
	ErrNonFinite = errors.New("non-finite bound")
	// ErrInvertedRange rejects magnitude ranges with min > max.
	ErrInvertedRange = errors.New("inverted magnitude range")
	// ErrOutOfRange rejects magnitude ranges outside the operator's
	// canonical parameter bounds.
	ErrOutOfRange = errors.New("magnitude range outside operator bounds")
	// ErrInvertedWindow rejects windows with negative start or end <= start.
	ErrInvertedWindow = errors.New("inverted window")
	// ErrWindowUnsupported rejects windows on controller channels: gating a
	// stateful controller wrapper mid-run would double-step the wrapped
	// controller, so only sensor/actuator faults can be windowed.
	ErrWindowUnsupported = errors.New("window unsupported for controller channels")
)

// SpecError is the typed rejection a non-canonical search spec produces.
type SpecError struct {
	Op     string // the offending channel
	Reason error  // one of the sentinel reasons above
	Detail string // human-readable specifics
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("search: channel %q: %v: %s", e.Op, e.Reason, e.Detail)
}

// Unwrap exposes the sentinel reason to errors.Is.
func (e *SpecError) Unwrap() error { return e.Reason }

func specErr(op string, reason error, format string, args ...any) error {
	return &SpecError{Op: op, Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Window bounds an attack's activation interval in simulated seconds
// [Start, End). Only sensor/actuator channels support windows.
type Window = mutate.Window

// Spec is one search channel: a mutation operator whose parameter is the
// magnitude axis the optimizer moves along, with optional range overrides
// and an optional activation window. The JSON form is the wire format of
// the /v1/search endpoint. Zero Min/Max select the operator's full
// canonical parameter range.
type Spec struct {
	Op     string  `json:"op"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	Window *Window `json:"window,omitempty"`
}

// Canonicalize validates the spec and resolves the magnitude range
// defaults, so equivalent specs collapse onto one identity. It is
// idempotent and does not mutate the receiver; rejections are typed
// *SpecError values wrapping the package sentinels.
func (s Spec) Canonicalize() (Spec, error) {
	opMin, opMax, ok := mutate.OpRange(s.Op)
	if !ok {
		return s, specErr(s.Op, ErrUnknownChannel,
			"want a parameterised mutation operator (have %v)", searchableOps())
	}
	for _, b := range [2]float64{s.Min, s.Max} {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return s, specErr(s.Op, ErrNonFinite, "magnitude bounds [%g, %g]", s.Min, s.Max)
		}
	}
	if s.Min == 0 {
		s.Min = opMin
	}
	if s.Max == 0 {
		s.Max = opMax
	}
	if s.Min > s.Max {
		return s, specErr(s.Op, ErrInvertedRange, "[%g, %g]", s.Min, s.Max)
	}
	if s.Min < opMin || s.Max > opMax {
		return s, specErr(s.Op, ErrOutOfRange,
			"[%g, %g] outside operator bounds [%g, %g]", s.Min, s.Max, opMin, opMax)
	}
	if s.Window != nil {
		w := *s.Window
		if math.IsNaN(w.Start) || math.IsInf(w.Start, 0) || math.IsNaN(w.End) || math.IsInf(w.End, 0) {
			return s, specErr(s.Op, ErrNonFinite, "window [%g, %g)", w.Start, w.End)
		}
		if w.Start < 0 || w.End <= w.Start {
			return s, specErr(s.Op, ErrInvertedWindow, "[%g, %g)", w.Start, w.End)
		}
		if mutate.OpKind(s.Op) == mutate.KindController {
			return s, specErr(s.Op, ErrWindowUnsupported, "[%g, %g)", w.Start, w.End)
		}
		s.Window = &w // detach from the caller's pointer
	}
	return s, nil
}

// ID is the canonical display identity of a (canonical) spec:
// "sense-gnss-quantize[0.05,100]", optionally "@[20,50)".
func (s Spec) ID() string {
	id := s.Op + "[" + strconv.FormatFloat(s.Min, 'g', -1, 64) +
		"," + strconv.FormatFloat(s.Max, 'g', -1, 64) + "]"
	if s.Window != nil {
		id += "@[" + strconv.FormatFloat(s.Window.Start, 'g', -1, 64) +
			"," + strconv.FormatFloat(s.Window.End, 'g', -1, 64) + ")"
	}
	return id
}

// searchableOps lists every operator with a magnitude axis, sorted.
func searchableOps() []string {
	var out []string
	for _, op := range mutate.OpNames() {
		if _, _, ok := mutate.OpRange(op); ok {
			out = append(out, op)
		}
	}
	return out
}

// DefaultChannels returns the default search space: the channels whose
// fault severity grows monotonically with the parameter, one per fault
// family — the sub-noise quantization channel that produced the M1
// survivor, the GNSS latency channel, and the two parameterised
// controller-defect channels. ctrl-gain-scale is deliberately excluded:
// its severity is non-monotone (param 1 is the identity, both extremes
// are bad), which breaks the descent-mode bracketing invariant.
func DefaultChannels() []Spec {
	return []Spec{
		{Op: mutate.OpGNSSQuantize},
		{Op: mutate.OpGNSSLatency},
		{Op: mutate.OpFrozenInput},
		{Op: mutate.OpLookaheadSkip},
	}
}
