package attacks

import (
	"fmt"
	"sort"

	"adassure/internal/sensors"
)

// Sequence composes multiple GNSS attacks with non-overlapping windows into
// one channel transform, modelling a campaign that probes a victim with
// several techniques in a single drive. Each fix is transformed by the
// attack whose window contains its observation time; outside every window
// the fix passes through untouched.
type Sequence struct {
	name    string
	attacks []GNSSAttack
}

// NewSequence builds a sequential campaign. Windows must be well-formed,
// non-overlapping and bounded (an open-ended window may only be last).
func NewSequence(as ...GNSSAttack) (*Sequence, error) {
	if len(as) == 0 {
		return nil, fmt.Errorf("attacks: sequence needs at least one attack")
	}
	sorted := make([]GNSSAttack, len(as))
	copy(sorted, as)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Window().Start < sorted[j].Window().Start
	})
	for i, a := range sorted {
		w := a.Window()
		if err := w.Validate(); err != nil {
			return nil, err
		}
		if i < len(sorted)-1 {
			next := sorted[i+1].Window()
			if w.End == 0 {
				return nil, fmt.Errorf("attacks: open-ended window of %s must be last in a sequence", a.Name())
			}
			if next.Start < w.End {
				return nil, fmt.Errorf("attacks: windows of %s and %s overlap", a.Name(), sorted[i+1].Name())
			}
		}
	}
	name := "seq("
	for i, a := range sorted {
		if i > 0 {
			name += "→"
		}
		name += a.Name()
	}
	name += ")"
	return &Sequence{name: name, attacks: sorted}, nil
}

// Name implements GNSSAttack.
func (s *Sequence) Name() string { return s.name }

// Class implements GNSSAttack; a sequence reports the class of its first
// stage (ground truth for multi-stage campaigns is per-segment — see
// diagnosis.Segment).
func (s *Sequence) Class() Class { return s.attacks[0].Class() }

// Window implements GNSSAttack: the hull from the first start to the last
// end (open if the last stage is open).
func (s *Sequence) Window() Window {
	return Window{Start: s.attacks[0].Window().Start, End: s.attacks[len(s.attacks)-1].Window().End}
}

// Apply implements GNSSAttack. Every stage sees every fix (stateful attacks
// such as Replay and Freeze need the pass-through traffic to build their
// capture history); the stage whose window is active determines the
// delivered result.
func (s *Sequence) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	out, deliver := fix, true
	for _, a := range s.attacks {
		if a.Window().Contains(t) {
			out, deliver = a.Apply(fix, t)
		} else {
			// Feed pass-through traffic so stateful stages keep capturing.
			a.Apply(fix, t)
		}
	}
	return out, deliver
}

var _ GNSSAttack = (*Sequence)(nil)
