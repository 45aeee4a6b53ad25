package core

import (
	"math"
	"slices"
	"testing"
)

// TestSignalTrace: the projection holds the 19 columns in CSV order, one
// sample per frame at the frame's time, fallback as 0/1, and leaves
// non-finite commands out of the two command columns only.
func TestSignalTrace(t *testing.T) {
	frames := []Frame{
		{T: 0.05, TrueX: 1, CmdSteer: 0.1, CmdAccel: 0.5},
		{T: 0.10, TrueX: 2, CmdSteer: math.NaN(), CmdAccel: math.Inf(1), Fallback: true},
		{T: 0.15, TrueX: 3, CmdSteer: -0.1, CmdAccel: 0, Fallback: true},
	}
	tr := SignalTrace(frames)
	if got := tr.Signals(); !slices.Equal(got, signalNames[:]) {
		t.Fatalf("signals %v, want %v", got, signalNames)
	}
	for _, sig := range tr.Signals() {
		want := 3
		if sig == "steer" || sig == "accel_cmd" {
			want = 2
		}
		if n := tr.Len(sig); n != want {
			t.Errorf("%s: %d samples, want %d", sig, n, want)
		}
	}
	for i, s := range tr.Samples("true_x") {
		if s.T != frames[i].T || s.Value != frames[i].TrueX {
			t.Errorf("true_x sample %d = %+v, want frame %d's", i, s, i)
		}
	}
	if got := tr.Samples("fallback"); got[0].Value != 0 || got[1].Value != 1 || got[2].Value != 1 {
		t.Errorf("fallback samples %+v, want 0, 1, 1", got)
	}
	if got := tr.Samples("steer"); got[1].T != 0.15 || got[1].Value != -0.1 {
		t.Errorf("steer samples %+v, want the NaN at t=0.10 left out", got)
	}
	if empty := SignalTrace(nil); len(empty.Signals()) != len(signalNames) || empty.Len("true_x") != 0 {
		t.Errorf("projection of no frames: %v", empty.Signals())
	}
}
