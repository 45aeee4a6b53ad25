package core

import (
	"math"
	"math/rand"
	"testing"
)

// remPair is one (a, b) argument pair for rem.
type remPair struct{ a, b float64 }

// remCases draws argument pairs over every regime rem distinguishes:
// random magnitudes, quotients within an ulp of an integer (where the
// rounded a/b overshoots the true quotient), quotients at and past 2⁵²,
// a = b, subnormals, and the zero, negative, NaN and ±Inf arguments that
// must take math.Mod.
func remCases(rng *rand.Rand, n int) []remPair {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1, -1, 0.25, 1e-6, 2 * math.Pi}
	var out []remPair
	for _, a := range specials {
		for _, b := range specials {
			out = append(out, remPair{a, b})
		}
	}
	mag := func() float64 {
		return math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
	}
	for i := 0; i < n; i++ {
		a := mag()
		switch i % 6 {
		case 0: // random magnitudes
			out = append(out, remPair{a, mag()})
		case 1: // near-integer quotients
			k := float64(1 + rng.Intn(1<<20))
			dir := math.Inf(2*rng.Intn(2) - 1)
			b := math.Nextafter(a/k, dir)
			out = append(out, remPair{a, b}, remPair{a, math.Nextafter(b, dir)})
		case 2: // quotients around and past 2⁵²
			b := math.Ldexp(a, -(50 + rng.Intn(12)))
			out = append(out, remPair{a, math.Nextafter(b, math.Inf(2*rng.Intn(2)-1))})
		case 3: // a = b, and a one ulp either side of b
			out = append(out, remPair{a, a}, remPair{math.Nextafter(a, 0), a}, remPair{math.Nextafter(a, math.Inf(1)), a})
		case 4: // subnormal divisors and remainders
			b := math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<30))
			out = append(out, remPair{b * float64(1+rng.Intn(1<<20)), b}, remPair{a, b})
		default: // small window deltas, as A15 folds them
			out = append(out, remPair{0.001 + rng.Float64()*2, 0.001 + rng.Float64()*2})
		}
	}
	return out
}

// TestRemMatchesMod checks rem against math.Mod bit for bit.
func TestRemMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range remCases(rng, 60000) {
		if got, want := rem(c.a, c.b), math.Mod(c.a, c.b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rem(%v, %v) = %v (%#x), math.Mod %v (%#x)", c.a, c.b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestRealGCDMatchesReference folds random windows of deltas — on a
// lattice and off it — with realGCD and with the math.Mod fold, and checks
// the results agree bit for bit.
func TestRealGCDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 20000; n++ {
		pitch := math.Ldexp(1+rng.Float64(), -rng.Intn(12))
		var window [16]float64
		for i := range window {
			if n%2 == 0 {
				window[i] = pitch * float64(1+rng.Intn(40))
			} else {
				window[i] = 0.001 + rng.Float64()*3
			}
		}
		g, w := window[0], window[0]
		for _, d := range window[1:] {
			g, w = realGCD(g, d, 1e-6), refRealGCD(w, d, 1e-6)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("window %v: realGCD %v, reference %v", window, g, w)
			}
		}
	}
}

// TestAngleDiffMatchesReference checks angleDiff against the math.Mod form
// bit for bit, inside (−2π, 2π), at its edges and far outside it.
func TestAngleDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi,
		math.Nextafter(2*math.Pi, 0), math.Nextafter(-2*math.Pi, 0), math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	for _, a := range edges {
		for _, b := range edges {
			checkAngleDiff(t, a, b)
		}
	}
	for n := 0; n < 100000; n++ {
		checkAngleDiff(t, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(6)-1)), rng.NormFloat64()*4)
	}
}

func checkAngleDiff(t *testing.T, a, b float64) {
	t.Helper()
	if got, want := angleDiff(a, b), refAngleDiff(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("angleDiff(%v, %v) = %v, reference %v", a, b, got, want)
	}
}

// FuzzRealGCD checks rem against math.Mod, realGCD against the math.Mod
// fold and angleDiff against its math.Mod form, all bit for bit, on
// fuzzed arguments.
func FuzzRealGCD(f *testing.F) {
	f.Add(0.75, 0.5, 1e-6)
	f.Add(3.0, math.Nextafter(1, 2), 1e-6)
	f.Add(1e300, 1e-300, 0.0)
	f.Fuzz(func(t *testing.T, a, b, eps float64) {
		if got, want := rem(a, b), math.Mod(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("rem(%v, %v) = %v, math.Mod %v", a, b, got, want)
		}
		if got, want := realGCD(a, b, eps), refRealGCD(a, b, eps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("realGCD(%v, %v, %v) = %v, reference %v", a, b, eps, got, want)
		}
		checkAngleDiff(t, a, b)
	})
}
