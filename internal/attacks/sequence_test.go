package attacks

import (
	"strings"
	"testing"

	"adassure/internal/geom"
)

func mustStep(t *testing.T, win Window, off geom.Vec2) *StepSpoof {
	t.Helper()
	a, err := NewStepSpoof(win, off)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSequenceValidation(t *testing.T) {
	if _, err := NewSequence(); err == nil {
		t.Error("empty sequence accepted")
	}
	a := mustStep(t, Window{Start: 10, End: 20}, geom.V(0, 5))
	b := mustStep(t, Window{Start: 15, End: 25}, geom.V(0, 5))
	if _, err := NewSequence(a, b); err == nil {
		t.Error("overlapping windows accepted")
	}
	// Open-ended window not last.
	open := mustStep(t, Window{Start: 5}, geom.V(0, 5))
	late := mustStep(t, Window{Start: 30, End: 40}, geom.V(0, 5))
	if _, err := NewSequence(open, late); err == nil {
		t.Error("open-ended window before another accepted")
	}
}

func TestSequenceAppliesStageInWindow(t *testing.T) {
	first := mustStep(t, Window{Start: 10, End: 20}, geom.V(0, 5))
	second := mustStep(t, Window{Start: 30, End: 40}, geom.V(3, 0))
	seq, err := NewSequence(second, first) // construction order irrelevant
	if err != nil {
		t.Fatal(err)
	}
	// Sorted: hull window 10..40.
	if w := seq.Window(); w.Start != 10 || w.End != 40 {
		t.Errorf("hull window = %+v", w)
	}
	if !strings.Contains(seq.Name(), "→") {
		t.Errorf("sequence name = %q", seq.Name())
	}
	check := func(ts float64, want geom.Vec2) {
		t.Helper()
		out, deliver := seq.Apply(fixAt(ts, 1, 1), ts)
		if !deliver || out.Pos != want {
			t.Errorf("t=%g: pos=%v deliver=%v, want %v", ts, out.Pos, deliver, want)
		}
	}
	check(5, geom.V(1, 1))  // before everything
	check(15, geom.V(1, 6)) // first stage active
	check(25, geom.V(1, 1)) // between stages
	check(35, geom.V(4, 1)) // second stage active
	check(45, geom.V(1, 1)) // after everything
}

func TestSequenceStatefulStageCaptures(t *testing.T) {
	// A freeze in the second stage must capture pass-through traffic from
	// before its window even though a first stage ran earlier.
	step := mustStep(t, Window{Start: 10, End: 15}, geom.V(0, 5))
	freeze, err := NewFreeze(Window{Start: 30, End: 40})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSequence(step, freeze)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic at t=25 (quiet period): freeze records it.
	seq.Apply(fixAt(25, 7, 8), 25)
	// At t=35 the freeze stage must replay (7,8) regardless of input.
	out, _ := seq.Apply(fixAt(35, 100, 100), 35)
	if out.Pos != geom.V(7, 8) {
		t.Errorf("freeze stage delivered %v, want captured (7,8)", out.Pos)
	}
}

func TestSequenceStages(t *testing.T) {
	a := mustStep(t, Window{Start: 10, End: 20}, geom.V(0, 5))
	b, err := NewFreeze(Window{Start: 30, End: 40})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSequence(b, a)
	if err != nil {
		t.Fatal(err)
	}
	// The name lists the stages in onset order, whatever the call order.
	if want := "seq(" + a.Name() + "→" + b.Name() + ")"; seq.Name() != want {
		t.Errorf("name = %q, want %q", seq.Name(), want)
	}
	if seq.Class() != ClassStepSpoof {
		t.Errorf("sequence class = %s", seq.Class())
	}
}
