package sensors

import (
	"math"
	"testing"
)

// sourceStreams is every stream constant Source is called with.
var sourceStreams = []uint64{
	streamGNSSX, streamGNSSY, streamGNSSSpeed,
	streamIMUYaw, streamIMUAccel, streamIMUHeading,
	streamOdom, StreamAttack, StreamCEM,
}

// normDraws returns n NormFloat64 draws of one (seed, stream) channel.
func normDraws(seed int64, stream uint64, n int) []float64 {
	r := Source(seed, stream)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

// pearson is the sample correlation coefficient of two equal-length series.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

// TestSourceStatistics checks the generator every noise channel draws
// from, over 1e5 standard-normal draws per channel at fixed seeds, so the
// test is deterministic. With n = 1e5 the standard error of a mean is
// 0.0032, of a standard deviation 0.0022 and of a correlation 0.0032; each
// bound below is about five standard errors, which an independent
// stream of standard normals misses with probability under 1e-6 per
// check.
//   - Per stream, the mean is within 0.016 of 0 and σ within 0.011 of 1.
//   - Between any two of the 27 (seed, stream) channels, |ρ| < 0.016: a
//     run's channels and neighbouring runs are uncorrelated.
func TestSourceStatistics(t *testing.T) {
	const n = 100_000
	const meanTol, sdTol, rhoTol = 0.016, 0.011, 0.016
	seeds := []int64{1, 2, 3}
	draws := map[[2]uint64][]float64{}
	var keys [][2]uint64
	for _, seed := range seeds {
		for _, st := range sourceStreams {
			k := [2]uint64{uint64(seed), st}
			keys = append(keys, k)
			draws[k] = normDraws(seed, st, n)
		}
	}
	for _, k := range keys {
		var s, ss float64
		for _, v := range draws[k] {
			s += v
			ss += v * v
		}
		mean := s / n
		sd := math.Sqrt(ss/n - mean*mean)
		if math.Abs(mean) > meanTol || math.Abs(sd-1) > sdTol {
			t.Errorf("seed %d stream %d: mean %.4f σ %.4f, want 0±%g and 1±%g", k[0], k[1], mean, sd, meanTol, sdTol)
		}
	}
	// Every pair of distinct channels: the streams of one seed, one
	// stream across seeds, and mixed pairs, which catch a seed/stream
	// mix-up such as (s, k+1) repeating (s+1, k).
	for i, a := range keys {
		for _, b := range keys[i+1:] {
			if rho := pearson(draws[a], draws[b]); math.Abs(rho) > rhoTol {
				t.Errorf("seed %d stream %d against seed %d stream %d: ρ = %.4f, want |ρ| < %g",
					a[0], a[1], b[0], b[1], rho, rhoTol)
			}
		}
	}
}

// TestSourceDeterministic: one (seed, stream) pair always yields the same
// sequence, and a different stream or seed a different one.
func TestSourceDeterministic(t *testing.T) {
	a, b := Source(7, streamOdom), Source(7, streamOdom)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d differs: %d vs %d", i, x, y)
		}
	}
	first := Source(7, streamOdom).Uint64()
	if Source(7, streamGNSSX).Uint64() == first || Source(8, streamOdom).Uint64() == first {
		t.Error("another stream or seed repeats the first draw")
	}
}
