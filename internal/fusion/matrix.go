package fusion

import (
	"fmt"
	"math"
)

// The kernels below work on dense row-major matrices held in fixed-size
// arrays (passed as slices), so the EKF and the LQR solve run without heap
// allocation. Each one fixes its arithmetic order: golden outputs are
// byte-compared, so a kernel may not reassociate, drop a `+0` or skip work
// the original formulation did, except where the argument at predictCov
// shows that the skipped work changes no bit.

// Mul stores a·b into dst, where a is r×n and b is n×c (r and c follow from
// the slice lengths). dst must not alias a or b. The loop order is i, k, j,
// every entry starts at +0, and zero entries of a are skipped: a zero times
// an Inf or NaN in b contributes nothing, exactly as the product has always
// been computed here.
func Mul(dst, a, b []float64, n int) {
	r, c := len(a)/n, len(b)/n
	if r*n != len(a) || c*n != len(b) || len(dst) != r*c {
		panic(fmt.Sprintf("fusion: Mul of %d·%d elements over inner dimension %d into %d", len(a), len(b), n, len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < r; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				dst[i*c+j] += aik * b[k*c+j]
			}
		}
	}
}

// The structured kernels below write out Mul's products with the EKF's
// sparse factors (the motion Jacobian F, the selector (I − K·H)) in Mul's
// exact order: each entry starts at +0 and adds its terms with k
// ascending. They drop the terms whose factor is a structural zero and keep
// those whose factor is a data zero that Mul skips. Either way the term is
// ±0 while the other factor is finite, and a sum that starts at +0 is
// never −0 under round-to-nearest, so adding a ±0 term leaves it
// unchanged. Every operand entry is a factor of some term of the result,
// and a non-finite term leaves its sum non-finite, so a finite result
// proves every operand and intermediate finite and the result equal to
// Mul's bit for bit. A caller recomputes with Mul when the result is not
// finite.

// predictCov stores F·p·Fᵀ into dst, where F is the identity plus a, b at
// (0, 2), (0, 3) and c, d at (1, 2), (1, 3): Mul(Fp, F, p) then
// Mul(dst, Fp, Fᵀ).
func predictCov(dst, p *[16]float64, a, b, c, d float64) {
	var fp [16]float64
	for j := 0; j < 4; j++ {
		fp[j] = 0 + p[j] + a*p[8+j] + b*p[12+j]
		fp[4+j] = 0 + p[4+j] + c*p[8+j] + d*p[12+j]
		fp[8+j] = 0 + p[8+j]
		fp[12+j] = 0 + p[12+j]
	}
	for i := 0; i < 16; i += 4 {
		dst[i] = 0 + fp[i] + fp[i+2]*a + fp[i+3]*b
		dst[i+1] = 0 + fp[i+1] + fp[i+2]*c + fp[i+3]*d
		dst[i+2] = 0 + fp[i+2]
		dst[i+3] = 0 + fp[i+3]
	}
}

// correctCov stores (I − K·H)·p into dst for the gain K (4×m) of a
// selector H: h2 (rows pick x and y) when K has 8 entries, h1 (picks v)
// when it has 4.
func correctCov(dst, p *[16]float64, K []float64) {
	if len(K) == 8 {
		for i := 0; i < 4; i++ {
			c0, c1 := eye4[4*i]-K[2*i], eye4[4*i+1]-K[2*i+1]
			for j := 0; j < 4; j++ {
				s := 0 + c0*p[j] + c1*p[4+j]
				if i >= 2 {
					s += p[4*i+j]
				}
				dst[4*i+j] = s
			}
		}
		return
	}
	for i := 0; i < 4; i++ {
		c := eye4[4*i+3] - K[i]
		for j := 0; j < 4; j++ {
			s := 0.0
			if i < 3 {
				s += p[4*i+j]
			}
			dst[4*i+j] = s + c*p[12+j]
		}
	}
}

// finite reports whether every entry of a is finite: v − v is +0 for a
// finite v and NaN otherwise, and NaN survives the sum.
func finite(a []float64) bool {
	z := 0.0
	for _, v := range a {
		z += v - v
	}
	return z == 0
}

// Transpose stores aᵀ into dst, where a has r rows. dst must not alias a.
func Transpose(dst, a []float64, r int) {
	c := len(a) / r
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			dst[j*r+i] = a[i*c+j]
		}
	}
}

// Symmetrize stores (a + aᵀ)/2 into the n×n dst, which may alias a: each
// mirror pair is read before either half is written. It keeps covariance
// matrices from drifting asymmetric through round-off.
func Symmetrize(dst, a []float64, n int) {
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			upper := (a[i*n+j] + a[j*n+i]) / 2
			lower := (a[j*n+i] + a[i*n+j]) / 2
			dst[i*n+j] = upper
			dst[j*n+i] = lower
		}
	}
}

// Inv stores the inverse of the n×n matrix a (n ≤ 2) into dst by
// Gauss-Jordan elimination with partial pivoting. It panics on a singular
// matrix: the matrices inverted here are innovation covariances, positive
// definite by construction, so singularity is a programming error, not a
// data condition. dst must not alias a.
func Inv(dst, a []float64, n int) {
	if n > 2 {
		panic("fusion: Inv supports n ≤ 2")
	}
	var aug [8]float64 // n×2n, row-major
	w := 2 * n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug[i*w+j] = a[i*n+j]
		}
		aug[i*w+n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r*w+col]) > math.Abs(aug[piv*w+col]) {
				piv = r
			}
		}
		if math.Abs(aug[piv*w+col]) < 1e-14 {
			panic("fusion: singular matrix in Inv")
		}
		if piv != col {
			for j := 0; j < w; j++ {
				aug[col*w+j], aug[piv*w+j] = aug[piv*w+j], aug[col*w+j]
			}
		}
		d := aug[col*w+col]
		for j := 0; j < w; j++ {
			aug[col*w+j] /= d
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r*w+col]
			if f == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				aug[r*w+j] -= f * aug[col*w+j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = aug[i*w+n+j]
		}
	}
}
