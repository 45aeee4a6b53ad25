package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestSincosMatchesSinCos checks Sincos against math.Sin and math.Cos bit
// for bit. The plant and the fusion filters fuse each Cos/Sin pair of one
// angle into one Sincos call, and the simulator's digests stay equal only
// while this holds. It covers signed zeros, multiples of π/4 and their
// neighbours, the range reduction's thresholds, huge arguments, NaNs with
// any payload, ±Inf and random bit patterns.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(a float64) {
		s, c := Sincos(a)
		if math.Float64bits(s) != math.Float64bits(math.Sin(a)) || math.Float64bits(c) != math.Float64bits(math.Cos(a)) {
			t.Fatalf("Sincos(%#x) = (%#x, %#x), Sin/Cos (%#x, %#x)", math.Float64bits(a), math.Float64bits(s),
				math.Float64bits(c), math.Float64bits(math.Sin(a)), math.Float64bits(math.Cos(a)))
		}
	}
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1 << 29, -(1 << 29), 1 << 52, 1e300, -1e300,
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000123),
		math.Inf(1), math.Inf(-1)}
	for k := -16; k <= 16; k++ {
		a := float64(k) * math.Pi / 4
		edges = append(edges, a, math.Nextafter(a, math.Inf(1)), math.Nextafter(a, math.Inf(-1)))
	}
	for _, a := range edges {
		check(a)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200000; n++ {
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-2)))
		check(math.Float64frombits(rng.Uint64()))
	}
}
