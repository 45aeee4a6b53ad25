package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
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
