package fusion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMul(t *testing.T) {
	a := [4]float64{1, 2, 3, 4}
	var sq [4]float64
	Mul(sq[:], a[:], a[:], 2)
	// [[1,2],[3,4]]² = [[7,10],[15,22]]
	if sq != [4]float64{7, 10, 15, 22} {
		t.Errorf("Mul broken: %v", sq)
	}
	// 2×3 · 3×1.
	m := [6]float64{1, 2, 3, 4, 5, 6}
	v := [3]float64{1, 0, -1}
	var mv [2]float64
	Mul(mv[:], m[:], v[:], 3)
	if mv != [2]float64{-2, -2} {
		t.Errorf("Mul 2×3·3×1 = %v", mv)
	}
	// A zero left-hand entry contributes nothing, even against an Inf.
	sel := [2]float64{1, 0}
	col := [2]float64{3, math.Inf(1)}
	var dot [1]float64
	Mul(dot[:], sel[:], col[:], 2)
	if dot[0] != 3 {
		t.Errorf("zero entry times Inf leaked into the product: %v", dot[0])
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Mul should panic")
		}
	}()
	var a, b, dst [6]float64
	Mul(dst[:], a[:], b[:], 3) // 2×3 · 2×3
}

func TestMatTranspose(t *testing.T) {
	m := [6]float64{0, 0, 7, 0, 0, 0} // 2×3
	var mt [6]float64
	Transpose(mt[:], m[:], 2)
	if mt[2*2+0] != 7 {
		t.Errorf("transpose broken: %v", mt)
	}
}

func TestMatInv(t *testing.T) {
	m := [4]float64{4, 7, 2, 6}
	var inv, prod [4]float64
	Inv(inv[:], m[:], 2)
	Mul(prod[:], m[:], inv[:], 2)
	if !near(prod[:], []float64{1, 0, 0, 1}, 1e-10) {
		t.Error("Inv: m·m⁻¹ != I")
	}
	var one [1]float64
	Inv(one[:], []float64{4}, 1)
	if one[0] != 0.25 {
		t.Errorf("1×1 Inv = %v", one[0])
	}
	for _, c := range []struct {
		name string
		a    []float64
		n    int
	}{
		{"singular", make([]float64, 4), 2},
		{"3×3", make([]float64, 9), 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s Inv should panic", c.name)
				}
			}()
			Inv(make([]float64, len(c.a)), c.a, c.n)
		}()
	}
}

func TestMatInvProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		// Build a well-conditioned SPD matrix M = AᵀA + I.
		m := [4]float64{a, b, c, d}
		var mt, spd, inv, prod [4]float64
		Transpose(mt[:], m[:], 2)
		Mul(spd[:], mt[:], m[:], 2)
		spd[0]++
		spd[3]++
		Inv(inv[:], spd[:], 2)
		Mul(prod[:], spd[:], inv[:], 2)
		return near(prod[:], []float64{1, 0, 0, 1}, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatSymmetrize(t *testing.T) {
	m := [4]float64{0, 2, 4, 0}
	var s [4]float64
	Symmetrize(s[:], m[:], 2)
	if s != [4]float64{0, 3, 3, 0} {
		t.Errorf("Symmetrize broken: %v", s)
	}
	Symmetrize(m[:], m[:], 2) // in place
	if m != s {
		t.Errorf("in-place Symmetrize = %v, want %v", m, s)
	}
}

// kernelEntry draws a matrix entry that stresses the structured kernels'
// argument: signed zeros, subnormals, huge values whose products overflow,
// infinities, NaN and ordinary magnitudes.
func kernelEntry(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
	case 3:
		return math.MaxFloat64 / float64(1+rng.Intn(4)) * float64(2*rng.Intn(2)-1)
	case 4:
		return math.Inf(2*rng.Intn(2) - 1)
	case 5:
		if rng.Intn(4) == 0 {
			return math.NaN()
		}
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
}

// TestStructuredKernelsMatchMul checks predictCov and correctCov against
// the general kernels they write out: whenever a structured result is
// finite, it equals Mul's bit for bit, on operands drawn with signed zeros,
// subnormals, overflowing magnitudes, infinities and NaN.
func TestStructuredKernelsMatchMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var checked, fellBack int
	for n := 0; n < 200000; n++ {
		var p [16]float64
		dense := rng.Intn(2) == 0
		for i := range p {
			if dense {
				p[i] = kernelEntry(rng)
			} else {
				p[i] = rng.NormFloat64()
			}
		}
		var got, want [16]float64
		switch n % 3 {
		case 0:
			var e [4]float64
			for i := range e {
				e[i] = kernelEntry(rng)
			}
			predictCov(&got, &p, e[0], e[1], e[2], e[3])
			F := eye4
			F[2], F[3], F[6], F[7] = e[0], e[1], e[2], e[3]
			var FT, Fp [16]float64
			Transpose(FT[:], F[:], 4)
			Mul(Fp[:], F[:], p[:], 4)
			Mul(want[:], Fp[:], FT[:], 4)
		default:
			K, H := make([]float64, 8), h2[:]
			if n%3 == 2 {
				K, H = K[:4], h1[:]
			}
			for i := range K {
				K[i] = kernelEntry(rng)
			}
			correctCov(&got, &p, K)
			var KH, IKH [16]float64
			Mul(KH[:], K, H, len(K)/4)
			for i := range IKH {
				IKH[i] = eye4[i] - KH[i]
			}
			Mul(want[:], IKH[:], p[:], 4)
		}
		if !finite(got[:]) {
			fellBack++
			continue
		}
		checked++
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d entry %d: structured %v (%#x), Mul %v (%#x); p=%v", n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), p)
			}
		}
	}
	if checked < 10000 || fellBack < 10000 {
		t.Fatalf("draws exercised %d finite and %d non-finite results; want both", checked, fellBack)
	}
}
