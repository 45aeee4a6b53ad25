// Package trace records time-series of named signals produced by a
// simulation run and exports them as CSV or JSON. It substitutes for the
// ROS-bag recordings of the original study: every experiment's "figure" is
// rendered from a trace.
//
// Storage is columnar (struct-of-arrays): each signal holds a value column
// and reads its times from a time axis, both preallocated via Reserve and
// grown geometrically by append. Signals recorded in lockstep share one
// axis; a signal whose times leave it (a skipped sample, a late start)
// continues on its own copy. The simulation engine resolves one *Column
// handle per signal before its step loop and appends through it, so the
// steady-state recording path performs no map lookups and no heap
// allocation. Row-oriented accessors (Samples, At, Downsample) and the CSV/
// JSON exports are preserved byte-for-byte on top of the columnar layout;
// see DESIGN.md §13 for the memory model and ownership rules.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Sample is one observation of one signal.
type Sample struct {
	T     float64 // simulation time, s
	Value float64
}

// axis is a time column that several signals may share: the times of a
// Column with n samples are the first n entries of its axis.
type axis struct{ t []float64 }

// Column is the columnar storage of one signal: a value slice in recording
// order and the time axis its samples sit on. A Column handle is the
// zero-allocation write path — resolve it once (Trace.Column), then Append
// per step. Not safe for concurrent use, nor are the other columns of its
// trace, which may share its axis.
type Column struct {
	name string
	ax   *axis // ax.t[:len(v)] are the sample times
	v    []float64
}

// Name returns the signal name.
func (c *Column) Name() string { return c.name }

// Len returns the number of recorded samples.
func (c *Column) Len() int { return len(c.v) }

// Times returns the time column. The slice is a view owned by the trace:
// callers must not modify it, and must not retain it across further
// appends (growth may move the backing array).
func (c *Column) Times() []float64 { return c.ax.t[:len(c.v)] }

// Values returns the value column, under the same ownership rules as Times.
func (c *Column) Values() []float64 { return c.v }

// Sample returns the i-th sample (recording order).
func (c *Column) Sample(i int) Sample { return Sample{T: c.Times()[i], Value: c.v[i]} }

// Append records one sample, enforcing per-signal time monotonicity and
// finite time (the same contract as Trace.Record). Appending into reserved
// capacity does not allocate, except once when the column leaves a shared
// axis.
func (c *Column) Append(t, value float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("trace: non-finite time %g for signal %q", t, c.name)
	}
	n, at := len(c.v), c.ax.t
	if n > 0 && t < at[n-1] {
		return fmt.Errorf("trace: time went backwards for %q: %g after %g", c.name, t, at[n-1])
	}
	switch {
	case n < len(at) && math.Float64bits(at[n]) == math.Float64bits(t):
		// A signal sharing the axis already recorded this time here.
	case n == len(at):
		c.ax.t = append(at, t)
	default:
		// The axis holds another time here: continue on a copy of our own.
		own := append(make([]float64, 0, max(cap(c.v), n+1)), at[:n]...)
		c.ax = &axis{t: append(own, t)}
	}
	c.v = append(c.v, value)
	return nil
}

// MustAppend is Append for engine-internal signals whose preconditions are
// established by the caller; it panics on error.
func (c *Column) MustAppend(t, value float64) {
	if err := c.Append(t, value); err != nil {
		panic(err)
	}
}

// grow returns s with capacity for at least n elements.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s
	}
	return append(make([]float64, 0, n), s...)
}

// reserve grows the column's capacity, and its axis', to hold at least n
// samples without further allocation.
func (c *Column) reserve(n int) {
	c.ax.t = grow(c.ax.t, n)
	c.v = grow(c.v, n)
}

// Trace accumulates samples for a set of named signals. It is not safe for
// concurrent use; the simulation engine owns it for the duration of a run.
type Trace struct {
	cols    []*Column      // first-appearance order
	index   map[string]int // signal name → cols index
	axis    *axis          // the time axis new columns start on
	reserve int            // capacity hint applied to new columns
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{index: make(map[string]int), axis: &axis{}}
}

// Reserve hints the expected per-signal sample count (e.g. duration/dt from
// the simulation horizon): existing columns grow to that capacity and
// columns created later preallocate it, so steady-state recording never
// reallocates.
func (tr *Trace) Reserve(n int) {
	if n <= 0 {
		return
	}
	tr.reserve = n
	for _, c := range tr.cols {
		c.reserve(n)
	}
}

// Column returns the handle for the named signal, creating the column on
// first use. It panics on an empty name — handle resolution is static
// engine configuration, unlike Record which reports errors. The handle
// stays valid for the lifetime of the trace.
func (tr *Trace) Column(signal string) *Column {
	if signal == "" {
		panic("trace: empty signal name")
	}
	if i, ok := tr.index[signal]; ok {
		return tr.cols[i]
	}
	c := &Column{name: signal, ax: tr.axis}
	if tr.reserve > 0 {
		c.reserve(tr.reserve)
	}
	tr.index[signal] = len(tr.cols)
	tr.cols = append(tr.cols, c)
	return c
}

// lookup returns the column for a signal, nil if absent (never creates).
func (tr *Trace) lookup(signal string) *Column {
	if i, ok := tr.index[signal]; ok {
		return tr.cols[i]
	}
	return nil
}

// Record appends a sample for the named signal. Time must be non-decreasing
// per signal; out-of-order samples are rejected with an error so recording
// bugs surface immediately.
func (tr *Trace) Record(signal string, t, value float64) error {
	if signal == "" {
		return fmt.Errorf("trace: empty signal name")
	}
	return tr.Column(signal).Append(t, value)
}

// MustRecord is Record for simulator-internal signals whose preconditions
// are established by the engine; it panics on error.
func (tr *Trace) MustRecord(signal string, t, value float64) {
	if err := tr.Record(signal, t, value); err != nil {
		panic(err)
	}
}

// Signals returns the signal names in first-appearance order.
func (tr *Trace) Signals() []string {
	out := make([]string, len(tr.cols))
	for i, c := range tr.cols {
		out[i] = c.name
	}
	return out
}

// Samples returns the recorded samples for a signal (nil if absent) as a
// freshly materialised row-oriented copy. Hot paths should prefer the
// columnar views (Column, Times, Values) which do not copy.
func (tr *Trace) Samples(signal string) []Sample {
	c := tr.lookup(signal)
	if c == nil {
		return nil
	}
	out := make([]Sample, c.Len())
	for i, t := range c.Times() {
		out[i] = Sample{T: t, Value: c.v[i]}
	}
	return out
}

// Len returns the number of samples recorded for a signal.
func (tr *Trace) Len(signal string) int {
	c := tr.lookup(signal)
	if c == nil {
		return 0
	}
	return c.Len()
}

// At returns the value of signal at time t using zero-order hold (the value
// of the latest sample with T ≤ t). ok is false if the signal has no sample
// at or before t.
func (tr *Trace) At(signal string, t float64) (v float64, ok bool) {
	c := tr.lookup(signal)
	if c == nil {
		return 0, false
	}
	// First sample strictly after t.
	ts := c.Times()
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > t })
	if i == 0 {
		return 0, false
	}
	return c.v[i-1], true
}

// Last returns the most recent sample of a signal.
func (tr *Trace) Last(signal string) (Sample, bool) {
	c := tr.lookup(signal)
	if c == nil || c.Len() == 0 {
		return Sample{}, false
	}
	return c.Sample(c.Len() - 1), true
}

// Stats summarises a signal.
type Stats struct {
	Count          int
	Min, Max, Mean float64
	RMS            float64
	AbsMax         float64
}

// statsOver computes statistics over the index range [lo, hi) of a column,
// with the same accumulation order as the original row-oriented scan so
// results are bit-identical.
func statsOver(c *Column, lo, hi int) Stats {
	n := hi - lo
	if c == nil || n <= 0 {
		return Stats{}
	}
	st := Stats{Count: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for i := lo; i < hi; i++ {
		v := c.v[i]
		sum += v
		sumSq += v * v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		if a := math.Abs(v); a > st.AbsMax {
			st.AbsMax = a
		}
	}
	st.Mean = sum / float64(n)
	st.RMS = math.Sqrt(sumSq / float64(n))
	return st
}

// window returns the index range [lo, hi) of samples with T in [t0, t1].
func (c *Column) window(t0, t1 float64) (lo, hi int) {
	ts := c.Times()
	lo = sort.Search(len(ts), func(i int) bool { return ts[i] >= t0 })
	hi = sort.Search(len(ts), func(i int) bool { return ts[i] > t1 })
	return lo, hi
}

// SignalStats computes summary statistics for a signal. The zero Stats is
// returned for an empty or missing signal.
func (tr *Trace) SignalStats(signal string) Stats {
	c := tr.lookup(signal)
	if c == nil {
		return Stats{}
	}
	return statsOver(c, 0, c.Len())
}

// WindowStats computes statistics over samples with T in [t0, t1].
func (tr *Trace) WindowStats(signal string, t0, t1 float64) Stats {
	c := tr.lookup(signal)
	if c == nil {
		return Stats{}
	}
	lo, hi := c.window(t0, t1)
	return statsOver(c, lo, hi)
}

// WriteCSV writes the trace as a wide CSV: a time column (the union of all
// sample times) followed by one column per signal, zero-order-held. Cells
// before a signal's first sample are empty.
func (tr *Trace) WriteCSV(w io.Writer) error {
	times := tr.unionTimes()
	cw := csv.NewWriter(w)
	header := append([]string{"t"}, tr.Signals()...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write csv header: %w", err)
	}
	row := make([]string, len(header))
	for _, t := range times {
		row[0] = strconv.FormatFloat(t, 'g', -1, 64)
		for i, c := range tr.cols {
			if v, ok := tr.At(c.name, t); ok {
				row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
			} else {
				row[i+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func (tr *Trace) unionTimes() []float64 {
	seen := make(map[float64]struct{})
	var times []float64
	for _, c := range tr.cols {
		for _, t := range c.Times() {
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				times = append(times, t)
			}
		}
	}
	sort.Float64s(times)
	return times
}

// Slice returns a new trace holding, for every signal, only the samples
// with T in the closed interval [t0, t1] — the evidence-window extraction
// behind forensic bundles. Signals with no samples in the window are
// omitted; the originals are never aliased.
func (tr *Trace) Slice(t0, t1 float64) *Trace {
	out := New()
	for _, c := range tr.cols {
		lo, hi := c.window(t0, t1)
		if hi <= lo {
			continue
		}
		oc := out.Column(c.name)
		for i := lo; i < hi; i++ {
			oc.MustAppend(c.ax.t[i], c.v[i])
		}
	}
	return out
}

// jsonTrace is the serialised form.
type jsonTrace struct {
	Signals map[string][]Sample `json:"signals"`
	Order   []string            `json:"order"`
}

// MarshalJSON serialises the trace, so a *Trace can embed directly in
// larger artifacts (forensic bundles). The row-oriented wire format is
// unchanged from the pre-columnar representation.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	sig := make(map[string][]Sample, len(tr.cols))
	for _, c := range tr.cols {
		sig[c.name] = tr.Samples(c.name)
	}
	return json.Marshal(jsonTrace{Signals: sig, Order: tr.Signals()})
}

// UnmarshalJSON parses a serialised trace, validating per-signal time
// monotonicity so a corrupted file fails loudly.
func (tr *Trace) UnmarshalJSON(b []byte) error {
	var jt jsonTrace
	if err := json.Unmarshal(b, &jt); err != nil {
		return fmt.Errorf("trace: decode json: %w", err)
	}
	*tr = *New()
	for _, name := range jt.Order {
		for _, s := range jt.Signals[name] {
			if err := tr.Record(name, s.T, s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON serialises the trace.
func (tr *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("trace: encode json: %w", err)
	}
	return nil
}

// ReadJSON parses a trace previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	tr := New()
	if err := json.NewDecoder(r).Decode(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// Downsample returns a copy of one signal's samples keeping roughly every
// n-th sample (always including first and last), for compact figure output.
func (tr *Trace) Downsample(signal string, n int) []Sample {
	c := tr.lookup(signal)
	if c == nil {
		return nil
	}
	if n <= 1 || c.Len() <= 2 {
		return tr.Samples(signal)
	}
	var out []Sample
	for i := 0; i < c.Len(); i += n {
		out = append(out, c.Sample(i))
	}
	if last := c.Sample(c.Len() - 1); out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}
