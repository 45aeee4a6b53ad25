// Package obs is the observability layer of the repo: a dependency-free,
// allocation-conscious metrics registry the hot paths (sim step loop,
// assertion monitor, scenario runner) report into. It exists because the
// methodology's central claim — assertion monitoring is cheap enough to run
// online — is only checkable with first-class counters and latency
// histograms, not one-off wall-clock timing.
//
// Design constraints, in order:
//
//  1. A nil registry costs nothing. Every metric handle and every method is
//     nil-safe: resolving a metric from a nil *Registry yields a nil handle,
//     and operations on nil handles are single-branch no-ops. Instrumented
//     code therefore never needs an "is observability on?" flag of its own,
//     and the uninstrumented path stays within measurement noise of the
//     pre-instrumentation code (see BenchmarkNilRegistry / -StepWithObs).
//  2. Recording is lock-free. Counters and histogram buckets are atomics;
//     the registry mutex is only taken when a handle is first resolved, so
//     hot loops resolve handles once and then record without contention.
//     Many goroutines (the runner's workers) may share one registry.
//  3. No dependencies beyond the standard library, so every layer of the
//     repo — including internal/core — can import it without cycles.
//
// Typical wiring:
//
//	reg := obs.NewRegistry()
//	stepNS := reg.Histogram("sim.step_ns")  // resolve once
//	for ... {
//	    tm := stepNS.Start()
//	    ... hot work ...
//	    tm.Stop()
//	}
//	reg.WriteProm(os.Stdout) // the text exposition: every counter, gauge and le bucket
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so a disabled registry costs one branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 (e.g. steps-per-second of the
// most recent run).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution of non-negative int64 values
// (nanoseconds, by convention). Bucket i counts observations v with
// bounds[i-1] < v ≤ bounds[i]; one implicit overflow bucket catches the
// rest. Observation is a binary search over the bounds plus two atomic
// adds — no allocation, no locks.
type Histogram struct {
	bounds []int64        // ascending inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	// ex holds at most one exemplar per bucket (newest wins), attached by
	// ObserveEx and exported on the Prometheus _bucket lines. The plain
	// Observe path never touches it.
	ex []atomic.Pointer[Exemplar]
}

// SampleEvery is the timing sample period of the simulation step loop: the
// monitor and the run read the clock and observe their latency histograms
// (monitor.step_ns, monitor.<ID>.eval_ns, sim.step_ns) on the first of
// every SampleEvery frames, and on the others only bump plain integers that
// reach the exact counters on a sampled frame and at the end of a run. It
// is odd because GNSS fixes arrive at half the 20 Hz frame rate: an odd
// period alternates the samples between fresh-fix and stale frames, so the
// assertions that skip stale frames are not always timed on their skip
// path. Where a clock read costs ~100 ns, 17 already spends 2–3% of a run
// on the sampled frames; 33 spends 1–2% of the 5% bound
// TestObsOverheadBound holds the registry to.
const SampleEvery = 33

// Exemplar ties one observed value to the trace that produced it — the
// bridge from a latency histogram's tail bucket back to a retrievable
// trace in /debug/traces/<id>.
type Exemplar struct {
	TraceID string
	Value   int64
}

// DefaultLatencyBuckets covers 64 ns to ~68 s in factor-2 steps — wide
// enough for a sub-100 ns assertion eval and a multi-second scenario job
// in the same registry.
func DefaultLatencyBuckets() []int64 {
	bounds := make([]int64, 31)
	for i := range bounds {
		bounds[i] = 64 << i
	}
	return bounds
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// It panics on empty or unsorted bounds — histogram construction is static
// configuration, like Monitor.Add.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: own,
		counts: make([]atomic.Int64, len(own)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(own)+1),
	}
}

// Observe records one value. Negative values clamp to zero (latencies are
// non-negative by construction; a clock step would otherwise corrupt the
// distribution).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveEx records one value and attaches a trace-ID exemplar to the
// bucket the value lands in (newest exemplar wins). Unlike Observe this
// allocates (one Exemplar per call), so it belongs on request-scoped
// paths, not the per-step hot loop. An empty traceID degrades to Observe.
func (h *Histogram) ObserveEx(v int64, traceID string) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := h.bucketIdx(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.ex[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// bucketIdx returns the index of the bucket holding v (binary search:
// first bucket whose bound is ≥ v; len(bounds) is the overflow bucket).
func (h *Histogram) bucketIdx(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-th quantile (q ∈ [0,1]) by linear interpolation
// inside the bucket containing the target rank. It returns 0 when empty.
// The overflow bucket reports its lower bound — the estimate saturates
// rather than inventing values beyond the configured range.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1])
			}
			lo := int64(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / c
			return float64(lo) + frac*float64(h.bounds[i]-lo)
		}
		cum += c
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// Timer times one interval into a histogram. The zero Timer (from a nil
// histogram) is a no-op that never reads the clock.
type Timer struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing. On a nil histogram it returns the zero Timer
// without touching the clock, so a disabled registry pays only the nil
// check.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, t0: time.Now()}
}

// Stop observes the elapsed nanoseconds since Start.
func (t Timer) Stop() {
	if t.h != nil {
		t.h.Observe(time.Since(t.t0).Nanoseconds())
	}
}

// Registry holds named metrics. Handle resolution (Counter / Gauge /
// Histogram) locks briefly and may allocate; recording through a resolved
// handle is lock-free. All methods are nil-safe: a nil *Registry resolves
// nil handles, making "no observability" the zero-configuration default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter resolves (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge resolves (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram resolves (creating on first use, with DefaultLatencyBuckets)
// the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith resolves the named histogram, creating it with the given
// bounds (nil means DefaultLatencyBuckets). Bounds are fixed at creation;
// later resolutions return the existing histogram regardless of bounds.
func (r *Registry) HistogramWith(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
