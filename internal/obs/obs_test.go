package obs

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if nilC.Value() != 0 {
		t.Error("nil counter must read 0")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Errorf("gauge = %g", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Errorf("gauge = %g", g.Value())
	}
	var nilG *Gauge
	nilG.Set(9)
	if nilG.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
}

// TestHistogramBucketBoundaries pins the bucketing rule: bucket i counts
// v with bounds[i-1] < v ≤ bounds[i] (inclusive upper bound), values above
// the last bound land in the overflow bucket, negatives clamp to zero.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10, 11, 100, 101, 1000, 1001, 1 << 40} {
		h.Observe(v)
	}
	want := []Bucket{
		{Le: 10, Count: 3},   // -5 (clamped), 0, 10
		{Le: 100, Count: 2},  // 11, 100
		{Le: 1000, Count: 2}, // 101, 1000
		{Le: -1, Count: 2},   // 1001, 1<<40 → overflow
	}
	got := h.Summary().Buckets
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %+v, want %+v", got, want)
	}
	if h.Count() != 9 {
		t.Errorf("count = %d, want 9", h.Count())
	}
	// Sum counts the clamped values: -5 → 0.
	wantSum := int64(0+0+10+11+100+101+1000+1001) + 1<<40
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 10 observations uniformly in (10, 20]: quantiles interpolate inside
	// that single bucket.
	for v := int64(11); v <= 20; v++ {
		h.Observe(v)
	}
	if q := h.Quantile(0); q != 10 {
		t.Errorf("q0 = %g, want bucket lower bound 10", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("q1 = %g, want bucket upper bound 20", q)
	}
	if q := h.Quantile(0.5); q != 15 {
		t.Errorf("q0.5 = %g, want 15 (midpoint of (10,20])", q)
	}
	// Quantiles are monotone in q and clamp out-of-range q.
	prev := -1.0
	for _, q := range []float64{-1, 0, 0.25, 0.5, 0.75, 0.95, 1, 2} {
		v := h.Quantile(q)
		if v < prev {
			t.Errorf("quantile not monotone: q=%g gives %g after %g", q, v, prev)
		}
		prev = v
	}
	// Overflow-only distribution saturates at the last bound.
	o := NewHistogram([]int64{10})
	o.Observe(50)
	if q := o.Quantile(0.99); q != 10 {
		t.Errorf("overflow quantile = %g, want saturation at 10", q)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bounds := range [][]int64{nil, {}, {10, 10}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	if len(b) != 31 || b[0] != 64 || b[30] != 64<<30 {
		t.Errorf("default buckets = len %d, first %d, last %d", len(b), b[0], b[len(b)-1])
	}
	NewHistogram(b) // must satisfy the strictly-ascending invariant
}

// TestConcurrentRecording hammers one registry from many goroutines; run
// under -race this is the lock-freedom correctness check for the shared
// runner/monitor registry.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			g := r.Gauge("g")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.Set(float64(w))
				if i%100 == 0 {
					r.WriteProm(io.Discard) // scrapes may race with recording
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramSummary: Summary reports the totals and every occupied
// bucket, the overflow bucket as Le = -1, and a nil histogram summarises
// to the zero value.
func TestHistogramSummary(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{5, 50, 500} {
		h.Observe(v)
	}
	s := h.Summary()
	want := []Bucket{{Le: 10, Count: 1}, {Le: 100, Count: 1}, {Le: -1, Count: 1}}
	if s.Count != 3 || s.Sum != 555 || !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("summary = %+v, want count 3, sum 555, buckets %v", s, want)
	}
	var nilH *Histogram
	if !reflect.DeepEqual(nilH.Summary(), HistogramSummary{}) {
		t.Error("nil histogram must summarise to the zero value")
	}
}

// TestNilRegistry: the whole API surface is a no-op on a nil registry —
// the contract that lets instrumented code skip "is obs on?" checks.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h") != nil {
		t.Error("nil registry must resolve nil handles")
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Errorf("nil registry exposition = %q, want only the # EOF line", buf.String())
	}
	// The nil-histogram timer must also be inert.
	var h *Histogram
	tm := h.Start()
	tm.Stop()
	h.Observe(5)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("nil histogram must read zero")
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Error("same name must resolve the same counter")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Error("same name must resolve the same gauge")
	}
	// Bounds are fixed at creation: a second HistogramWith with different
	// bounds returns the existing histogram.
	h1 := r.HistogramWith("c", nil)
	h2 := r.HistogramWith("c", []int64{1})
	if h1 != h2 {
		t.Error("same name must resolve the same histogram")
	}
}

func TestTimer(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	tm := h.Start()
	tm.Stop()
	if h.Count() != 1 {
		t.Errorf("timer recorded %d observations, want 1", h.Count())
	}
}

// BenchmarkNilRegistry measures the disabled-observability path: resolving
// from a nil registry and recording through nil handles must be within a
// branch or two of free.
func BenchmarkNilRegistry(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	h := r.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		tm := h.Start()
		tm.Stop()
		h.Observe(int64(i))
	}
}

// BenchmarkHistogramObserve measures the enabled hot path: one binary
// search plus three atomic adds, no allocation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultLatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i & 0xffff))
	}
}
