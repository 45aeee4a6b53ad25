package geom

import (
	"math"
	"math/rand"
	"testing"
)

// refNormalizeAngle is NormalizeAngle as it was written, with math.Mod on
// every finite angle, kept as the oracle the fast form must match bit for
// bit.
func refNormalizeAngle(a float64) float64 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return a
	}
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a <= -math.Pi:
		a += 2 * math.Pi
	case a > math.Pi:
		a -= 2 * math.Pi
	}
	return a
}

// TestNormalizeAngleMatchesReference checks NormalizeAngle against the
// math.Mod form bit for bit, inside (−2π, 2π), at its edges and far
// outside it.
func TestNormalizeAngleMatchesReference(t *testing.T) {
	check := func(a float64) {
		if got, want := NormalizeAngle(a), refNormalizeAngle(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v, reference %v", a, got, want)
		}
	}
	for _, a := range []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi,
		math.Nextafter(2*math.Pi, 0), math.Nextafter(-2*math.Pi, 0), math.Nextafter(math.Pi, 4),
		math.Nextafter(-math.Pi, -4), 1e300, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(a)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 100000; n++ {
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-1)))
	}
}
