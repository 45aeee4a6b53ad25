package obs

import "math"

// HistogramSummary condenses one histogram: totals, mean, the standard
// latency percentiles, and the non-empty buckets. Forensic bundles carry
// it as JSON and F4's "observed cost" notes read it.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets lists only the occupied buckets, smallest bound first.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one occupied histogram bucket: Count observations ≤ Le (the
// overflow bucket reports Le = -1).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Summary condenses the histogram's current state.
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	s := HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  sanitize(h.Mean()),
		P50:   sanitize(h.Quantile(0.50)),
		P95:   sanitize(h.Quantile(0.95)),
		P99:   sanitize(h.Quantile(0.99)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		le := int64(-1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: c})
	}
	return s
}

// sanitize maps non-finite values to 0 so a summary always marshals —
// encoding/json rejects NaN and ±Inf.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
