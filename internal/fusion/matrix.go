package fusion

import (
	"fmt"
	"math"
)

// The kernels below work on dense row-major matrices held in fixed-size
// arrays (passed as slices), so the EKF and the LQR solve run without heap
// allocation. Each one fixes its arithmetic order: golden outputs are
// byte-compared, so a kernel may not reassociate, drop a `+0` or skip work
// the original formulation did.

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
