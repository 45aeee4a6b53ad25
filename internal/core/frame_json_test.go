package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestFrameJSONNoPositionEstimate: a frame from a localizer without a
// position covariance (EstPosStdDev +Inf, or NaN) encodes with
// EstPosStdDev null and decodes back to +Inf; a finite value keeps
// encoding/json's own float form and round-trips bit for bit.
func TestFrameJSONNoPositionEstimate(t *testing.T) {
	for _, c := range []struct {
		in   float64
		wire string
		back float64
	}{
		{math.Inf(1), `"EstPosStdDev":null`, math.Inf(1)},
		{math.NaN(), `"EstPosStdDev":null`, math.Inf(1)},
		{0.37, `"EstPosStdDev":0.37`, 0.37},
		{1e-9, `"EstPosStdDev":1e-9`, 1e-9},
		{0, `"EstPosStdDev":0`, 0},
	} {
		b, err := json.Marshal(Frame{T: 1, Dt: 0.05, EstPosStdDev: StdDev(c.in)})
		if err != nil {
			t.Fatalf("EstPosStdDev %v: %v", c.in, err)
		}
		if !strings.Contains(string(b), c.wire) {
			t.Errorf("EstPosStdDev %v encodes as %s, want %s in it", c.in, b, c.wire)
		}
		var f Frame
		if err := json.Unmarshal(b, &f); err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		if math.Float64bits(float64(f.EstPosStdDev)) != math.Float64bits(c.back) || f.T != 1 {
			t.Errorf("EstPosStdDev %v decodes as %v (T %v), want %v", c.in, f.EstPosStdDev, f.T, c.back)
		}
	}
	var f Frame
	if err := json.Unmarshal([]byte(`{"EstPosStdDev":"wide"}`), &f); err == nil {
		t.Error("a string EstPosStdDev decoded without error")
	}
}

// TestFrameJSONFallback: the guard bit round-trips, and a frame document
// written before frames carried it (no Fallback key) decodes with the
// guard off.
func TestFrameJSONFallback(t *testing.T) {
	b, err := json.Marshal(Frame{T: 2, Fallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"Fallback":true`) {
		t.Errorf("frame with Fallback set encodes as %s", b)
	}
	var f Frame
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !f.Fallback || f.T != 2 {
		t.Errorf("decoded %+v, want Fallback true at T 2", f)
	}
	f = Frame{}
	if err := json.Unmarshal([]byte(`{"T":3,"NISFresh":true,"RejectStreak":1}`), &f); err != nil {
		t.Fatal(err)
	}
	if f.Fallback || !f.NISFresh || f.RejectStreak != 1 {
		t.Errorf("a document without Fallback decodes as %+v, want Fallback false", f)
	}
}

// TestFrameSize pins the frame at 304 bytes. The monitor takes a frame by
// value on every control step and a recording run holds one per step, so
// a field that grows it costs on both paths. Fallback sits next to
// NISFresh, inside the padding the bool already occupies before the int
// RejectStreak.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 304 {
		t.Errorf("core.Frame is %d bytes, want 304", n)
	}
}
