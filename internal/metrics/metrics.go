// Package metrics computes the evaluation-layer quantities the experiment
// harness reports: detection latency and rate, false-positive rate,
// tracking-quality summaries, comfort measures and distribution helpers
// (CDFs, percentiles) for the figures.
package metrics

import (
	"math"
	"sort"

	"adassure/internal/core"
	"adassure/internal/trace"
)

// Detection summarises whether and when a violation record detected an
// attack with a given onset time.
type Detection struct {
	// Detected is true when any violation was raised at or after onset.
	Detected bool
	// Latency is (first violation time − onset); 0 when undetected.
	Latency float64
	// ByID is the assertion that raised the first post-onset violation.
	ByID string
	// FalsePositives counts violations raised before onset.
	FalsePositives int
}

// Detect scores a violation record against an attack onset. For clean runs
// (onset < 0) every violation is a false positive and Detected stays false.
func Detect(vs []core.Violation, onset float64) Detection {
	var d Detection
	first := math.Inf(1)
	for _, v := range vs {
		if onset >= 0 && v.T >= onset {
			if v.T < first {
				first = v.T
				d.ByID = v.AssertionID
			}
			d.Detected = true
		} else {
			d.FalsePositives++
		}
	}
	if d.Detected {
		d.Latency = first - onset
	}
	return d
}

// Rates aggregates detections across repeated runs.
type Rates struct {
	Runs           int
	Detected       int
	DetectionRate  float64
	MeanLatency    float64 // over detected runs
	MedianLatency  float64
	P90Latency     float64
	FalsePositives int     // total across runs
	FPPerRun       float64 // average
}

// Aggregate folds per-run detections into summary rates.
func Aggregate(ds []Detection) Rates {
	r := Rates{Runs: len(ds)}
	if len(ds) == 0 {
		return r
	}
	var lats []float64
	for _, d := range ds {
		if d.Detected {
			r.Detected++
			lats = append(lats, d.Latency)
		}
		r.FalsePositives += d.FalsePositives
	}
	r.DetectionRate = float64(r.Detected) / float64(r.Runs)
	r.FPPerRun = float64(r.FalsePositives) / float64(r.Runs)
	if len(lats) > 0 {
		var sum float64
		for _, l := range lats {
			sum += l
		}
		r.MeanLatency = sum / float64(len(lats))
		r.MedianLatency = Percentile(lats, 50)
		r.P90Latency = Percentile(lats, 90)
	}
	return r
}

// Percentile returns the p-th percentile (0–100) of values using linear
// interpolation between order statistics. It returns NaN for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF of values at each distinct sample.
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	out := make([]CDFPoint, 0, len(s))
	for i, v := range s {
		frac := float64(i+1) / float64(len(s))
		if len(out) > 0 && out[len(out)-1].Value == v {
			out[len(out)-1].Fraction = frac
			continue
		}
		out = append(out, CDFPoint{Value: v, Fraction: frac})
	}
	return out
}

// Comfort summarises ride-quality measures from a run trace.
type Comfort struct {
	MaxLatAccel          float64 // m/s², |v·ω| upper bound observed
	RMSLatAccel          float64
	MaxJerk              float64 // m/s³ of the commanded accel
	SteerReversalsPerMin float64
}

// ComfortFrom computes comfort measures from the standard sim trace
// signals (speed, steer, accel_cmd). Missing signals yield zeros. It reads
// the columnar views directly (Times/Values) rather than materialising
// row-oriented copies.
func ComfortFrom(tr *trace.Trace) Comfort {
	var c Comfort
	if tr == nil {
		return c
	}
	speedT, speedV := columnViews(tr, "speed")
	_, steerV := columnViews(tr, "steer")
	accelT, accelV := columnViews(tr, "accel_cmd")

	// Lateral acceleration via steer → yaw rate needs wheelbase; use the
	// recorded steer as a proxy signal for reversals and rely on speed ×
	// yaw-rate-like measure only when both present and aligned.
	n := len(speedV)
	if len(steerV) < n {
		n = len(steerV)
	}
	var sumSq float64
	var count int
	var reversals int
	for i := 1; i < n; i++ {
		// Approximate yaw rate from steering assuming L = 2.8 (shuttle);
		// the comfort figures compare configurations, so a shared constant
		// cancels out.
		const wheelbase = 2.8
		v := speedV[i]
		yaw := v * math.Tan(steerV[i]) / wheelbase
		lat := math.Abs(v * yaw)
		if lat > c.MaxLatAccel {
			c.MaxLatAccel = lat
		}
		sumSq += lat * lat
		count++
		if steerV[i]*steerV[i-1] < 0 && math.Abs(steerV[i]-steerV[i-1]) > 0.05 {
			reversals++
		}
	}
	if count > 0 {
		c.RMSLatAccel = math.Sqrt(sumSq / float64(count))
	}
	for i := 1; i < len(accelV); i++ {
		dt := accelT[i] - accelT[i-1]
		if dt <= 0 {
			continue
		}
		if j := math.Abs(accelV[i]-accelV[i-1]) / dt; j > c.MaxJerk {
			c.MaxJerk = j
		}
	}
	if n > 1 {
		dur := speedT[n-1] - speedT[0]
		if dur > 0 {
			c.SteerReversalsPerMin = float64(reversals) / dur * 60
		}
	}
	return c
}

// columnViews returns the time/value views for a signal without copying,
// nil/nil when the signal is absent.
func columnViews(tr *trace.Trace, signal string) (t, v []float64) {
	if tr.Len(signal) == 0 {
		return nil, nil
	}
	c := tr.Column(signal)
	return c.Times(), c.Values()
}
