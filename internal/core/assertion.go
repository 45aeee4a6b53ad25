package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// Severity grades a violation's safety relevance.
type Severity int

// Severity levels.
const (
	Info Severity = iota
	Warning
	Critical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Outcome is one assertion evaluation on one frame.
type Outcome struct {
	// OK is true when the invariant holds on this frame.
	OK bool
	// Margin is how far inside (positive) or outside (negative) the bound
	// the observed value sits, in the assertion's native unit. Used by the
	// threshold-ablation experiments.
	Margin float64
	// Evidence carries the named values the assertion examined. It is a
	// fixed-capacity value (see Evidence), built in place, so an evaluation
	// performs no heap allocation; the monitor materialises a map only when
	// a violation is raised.
	Evidence Evidence
	// Skip indicates the assertion was not applicable this frame (e.g. no
	// fresh measurement); skipped frames do not advance the debouncer.
	Skip bool
}

// Set records the frame's verdict: whether the invariant holds and by what
// margin. It returns the outcome's evidence set, to which the assertion
// adds the values behind the verdict:
//
//	o.Set(v <= hi, hi-v).And("value", v).And("hi", hi)
func (o *Outcome) Set(ok bool, margin float64) *Evidence {
	o.OK, o.Margin = ok, margin
	return &o.Evidence
}

// Assertion is one runtime invariant over the frame stream. Implementations
// may keep history between frames and must support Reset for reuse across
// runs.
type Assertion interface {
	// ID is the catalog identifier, e.g. "A1".
	ID() string
	// Name is a short slug, e.g. "position-jump".
	Name() string
	// Description states the invariant for reports.
	Description() string
	// Severity grades the invariant.
	Severity() Severity
	// Eval checks the invariant on a frame and records the result in out,
	// which arrives as the zero Outcome. Both are passed by reference so a
	// monitor step copies neither the frame nor the outcome per assertion.
	Eval(f *Frame, out *Outcome)
	// Reset clears history for a new run.
	Reset()
}

// Violation is one raised assertion episode, with evidence from the frame
// that crossed the debounce threshold.
type Violation struct {
	AssertionID string
	Name        string
	Severity    Severity
	// T is the time the debounced violation was raised.
	T float64
	// FirstBreach is the time of the first failing frame in the episode.
	FirstBreach float64
	// Message is a human-readable account.
	Message string
	// Evidence snapshots the values behind the decision.
	Evidence map[string]float64
	// Duration is how long the episode lasted (raise until the window ran
	// fully clean). Zero while the episode is still open at end of run.
	Duration float64
}

// Debounce is the k-of-n policy: an episode is raised when at least K of
// the last N applicable frames failed. N=K=1 raises immediately.
type Debounce struct {
	K, N int
}

// Validate checks the policy.
func (d Debounce) Validate() error {
	if d.N < 1 || d.K < 1 || d.K > d.N {
		return fmt.Errorf("core: invalid debounce %d-of-%d", d.K, d.N)
	}
	return nil
}

// monitored pairs an assertion with its debounce state.
type monitored struct {
	a           Assertion
	deb         Debounce
	history     []bool // ring of last N applicability-filtered results
	pos         int
	filled      int
	inEpisode   bool
	firstBreach float64
	everFailed  bool
	openIdx     int // index into Monitor.violations of the open episode

	// Observability handles, resolved once by Monitor.Attach (nil when the
	// monitor is uninstrumented — every operation on them is then a no-op).
	evalNS *obs.Histogram
	evals  *obs.Counter
	raised *obs.Counter
}

func (m *monitored) reset() {
	m.a.Reset()
	m.history = make([]bool, m.deb.N)
	m.pos, m.filled = 0, 0
	m.inEpisode = false
	m.everFailed = false
	m.firstBreach = -1
	m.openIdx = -1
}

// push records a pass/fail and returns the number of failures in the
// current window and the window fill.
func (m *monitored) push(fail bool) (fails, filled int) {
	m.history[m.pos] = fail
	m.pos = (m.pos + 1) % m.deb.N
	if m.filled < m.deb.N {
		m.filled++
	}
	for i := 0; i < m.filled; i++ {
		if m.history[i] {
			fails++
		}
	}
	return fails, m.filled
}

// Monitor evaluates a set of assertions over the frame stream, applying
// per-assertion debouncing, and accumulates violations. One violation is
// recorded per failure episode (an episode ends when a full window passes
// clean). Not safe for concurrent use.
type Monitor struct {
	entries    []*monitored
	violations []Violation
	frames     int
	skippedBad int

	// frame is Step's copy of the frame being evaluated and out the slot
	// each assertion records its outcome in: the assertions work on both by
	// reference, so a step copies the frame once, not once per assertion.
	frame Frame
	out   Outcome

	// Observability (nil registry = uninstrumented, the default).
	obs        *obs.Registry
	stepNS     *obs.Histogram
	framesCtr  *obs.Counter
	skippedCtr *obs.Counter
	violCtr    *obs.Counter
	// pubFrames and pubSkipped are the frames and skips Flush has already
	// added to the counters.
	pubFrames, pubSkipped int

	// Event timeline (nil recorder = no recording, the default). Episodes
	// appear as spans on track "<scope>assertion/<ID>".
	events  *events.Recorder
	evScope string

	// Episode hooks (nil = none, the default). onOpen fires when a
	// debounced episode is raised, onClose when its window runs fully
	// clean again; see SetEpisodeHooks.
	onOpen  func(Violation)
	onClose func(Violation)
}

// NewMonitor builds an empty monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Attach wires the monitor to a metrics registry: the whole-step latency
// (monitor.step_ns), per-assertion evaluation latency (monitor.<ID>.eval_ns)
// and eval counts, frame counts and raised-violation counters — the
// numbers behind the "monitoring is cheap enough to run online" claim.
// Attach(nil) detaches. The latencies are sampled: only the first of every
// obs.SampleEvery frames reads the clock, with chained reads (one per
// assertion, not two) that include the debounce bookkeeping for that
// assertion; at sub-100 ns evals the 90–130 ns clock read itself is a
// visible fraction of the reported cost. The other frames do the work of
// a detached monitor plus one branch per assertion. The counters stay
// exact: they are added to the registry on each sampled frame and by
// Flush, which Attach calls first so the frames seen so far go to the old
// registry.
func (m *Monitor) Attach(r *obs.Registry) *Monitor {
	m.Flush()
	m.obs = r
	m.stepNS = r.Histogram("monitor.step_ns")
	m.framesCtr = r.Counter("monitor.frames")
	m.skippedCtr = r.Counter("monitor.frames_skipped")
	m.violCtr = r.Counter("monitor.violations")
	for _, e := range m.entries {
		e.attach(r)
	}
	return m
}

// attach resolves (or clears, for a nil registry) one entry's handles.
func (e *monitored) attach(r *obs.Registry) {
	if r == nil {
		e.evalNS, e.evals, e.raised = nil, nil, nil
		return
	}
	n := namesFor(e.a.ID())
	e.evalNS = r.Histogram(n.evalNS)
	e.evals = r.Counter(n.evals)
	e.raised = r.Counter(n.raised)
}

// metricNames are one assertion ID's registry names.
type metricNames struct{ evalNS, evals, raised string }

// metricNamesByID holds the names of every ID ever attached. A service
// attaches each run's fresh monitor to its one registry, so building the
// names by concatenation on every Attach cost three allocations per
// assertion per run; the table is bounded by the IDs the registries
// already name.
var metricNamesByID = struct {
	sync.Mutex
	m map[string]metricNames
}{m: map[string]metricNames{}}

// namesFor returns id's registry names, building them on first use.
func namesFor(id string) metricNames {
	metricNamesByID.Lock()
	defer metricNamesByID.Unlock()
	n, ok := metricNamesByID.m[id]
	if !ok {
		n = metricNames{
			evalNS: "monitor." + id + ".eval_ns",
			evals:  "monitor." + id + ".evals",
			raised: "monitor." + id + ".violations",
		}
		metricNamesByID.m[id] = n
	}
	return n
}

// AttachEvents wires the monitor to an event recorder: every violation
// episode becomes a span on track "<scope>assertion/<ID>" — opened at the
// debounced raise, closed when the window runs fully clean (or by
// FinishEvents at end of run). The scope prefix keeps tracks distinct
// when many scenarios share one recorder. AttachEvents(nil, "") detaches;
// a detached monitor pays one nil check per episode transition, nothing
// per frame.
func (m *Monitor) AttachEvents(rec *events.Recorder, scope string) *Monitor {
	m.events = rec
	m.evScope = scope
	return m
}

// SetEpisodeHooks registers callbacks invoked synchronously from Step at
// episode transitions: open fires with the just-raised violation (its
// Duration still zero), close fires with the completed violation after its
// Duration is stamped. Episodes still open when the stream ends see no
// close call — their recorded Duration stays zero, exactly as in the batch
// record. This is the seam the streaming session (internal/stream) builds
// its event feed and incremental diagnosis on; a nil hook costs one branch
// per episode transition and nothing per frame. Hooks survive Reset.
func (m *Monitor) SetEpisodeHooks(open, close func(Violation)) *Monitor {
	m.onOpen = open
	m.onClose = close
	return m
}

// FinishEvents closes the event spans of episodes still open at end of
// run, stamping them with the final timestamp and an open=1 attribute so
// the timeline distinguishes "cleared" from "still failing at cutoff".
func (m *Monitor) FinishEvents(t float64) {
	if m.events == nil {
		return
	}
	for _, e := range m.entries {
		if e.inEpisode {
			m.events.End(events.CatViolation, m.evScope+"assertion/"+e.a.ID(),
				e.a.ID()+" "+e.a.Name(), t, map[string]float64{"open": 1})
		}
	}
}

// Add registers an assertion under a debounce policy. It returns the
// monitor for chaining and panics on an invalid policy or duplicate ID —
// monitor assembly is static configuration.
func (m *Monitor) Add(a Assertion, deb Debounce) *Monitor {
	if err := deb.Validate(); err != nil {
		panic(err)
	}
	for _, e := range m.entries {
		if e.a.ID() == a.ID() {
			panic(fmt.Sprintf("core: duplicate assertion %s", a.ID()))
		}
	}
	e := &monitored{a: a, deb: deb}
	e.reset()
	if m.obs != nil {
		e.attach(m.obs)
	}
	m.entries = append(m.entries, e)
	return m
}

// Step evaluates every assertion on the frame. It copies the frame once
// into the monitor and hands every assertion that copy by reference.
func (m *Monitor) Step(frame Frame) {
	m.frames++
	m.frame = frame
	f := &m.frame
	if !f.Finite() {
		m.skippedBad++
		return
	}
	// Chained timestamps on a sampled frame: one clock read per assertion
	// attributes eval + bookkeeping cost to that assertion and the
	// first-to-last span to monitor.step_ns. Any other frame pays a single
	// branch per assertion.
	timed := m.obs != nil && (m.frames-1)%obs.SampleEvery == 0
	var start, prev time.Time
	if timed {
		start = time.Now()
		prev = start
	}
	for _, e := range m.entries {
		m.out = Outcome{}
		e.a.Eval(f, &m.out)
		m.apply(e, f.T, &m.out)
		if timed {
			now := time.Now()
			e.evalNS.Observe(now.Sub(prev).Nanoseconds())
			prev = now
		}
	}
	if timed {
		m.stepNS.Observe(prev.Sub(start).Nanoseconds())
		m.Flush()
	}
}

// Flush adds the frames, non-finite skips and per-assertion evaluations
// since the last flush to the attached registry's counters (monitor.frames,
// monitor.frames_skipped, monitor.<ID>.evals). Step flushes on every
// sampled frame; whoever ends a run calls Flush so the counters are exact,
// as sim.Run and a closing stream session do. Every finite frame is one
// evaluation of each assertion.
func (m *Monitor) Flush() {
	frames, skipped := m.frames-m.pubFrames, m.skippedBad-m.pubSkipped
	m.framesCtr.Add(int64(frames))
	m.skippedCtr.Add(int64(skipped))
	for _, e := range m.entries {
		e.evals.Add(int64(frames - skipped))
	}
	m.pubFrames, m.pubSkipped = m.frames, m.skippedBad
}

// apply pushes one evaluation outcome through an entry's debounce window
// and episode bookkeeping.
func (m *Monitor) apply(e *monitored, t float64, out *Outcome) {
	if out.Skip {
		return
	}
	if !out.OK && !e.inEpisode && e.firstBreachUnset() {
		e.firstBreach = t
	}
	fails, filled := e.push(!out.OK)
	switch {
	case !e.inEpisode && filled >= e.deb.K && fails >= e.deb.K:
		e.inEpisode = true
		e.everFailed = true
		if e.firstBreach > t || e.firstBreachUnset() {
			e.firstBreach = t
		}
		e.openIdx = len(m.violations)
		m.violations = append(m.violations, Violation{
			AssertionID: e.a.ID(),
			Name:        e.a.Name(),
			Severity:    e.a.Severity(),
			T:           t,
			FirstBreach: e.firstBreach,
			Message:     fmt.Sprintf("%s: %s (%d of last %d frames failing)", e.a.ID(), e.a.Description(), fails, filled),
			Evidence:    out.Evidence.Map(),
		})
		e.raised.Inc()
		m.violCtr.Inc()
		if m.onOpen != nil {
			m.onOpen(m.violations[e.openIdx])
		}
		if m.events != nil {
			m.events.Begin(events.CatViolation, m.evScope+"assertion/"+e.a.ID(),
				e.a.ID()+" "+e.a.Name(), t, map[string]float64{
					"first_breach": e.firstBreach,
					"severity":     float64(e.a.Severity()),
				})
		}
	case e.inEpisode && fails == 0 && filled == e.deb.N:
		// Window fully clean: episode over; re-arm.
		e.inEpisode = false
		e.firstBreach = -1
		if e.openIdx >= 0 {
			m.violations[e.openIdx].Duration = t - m.violations[e.openIdx].T
			if m.onClose != nil {
				m.onClose(m.violations[e.openIdx])
			}
			e.openIdx = -1
		}
		if m.events != nil {
			m.events.End(events.CatViolation, m.evScope+"assertion/"+e.a.ID(),
				e.a.ID()+" "+e.a.Name(), t, nil)
		}
	case !e.inEpisode && fails == 0:
		e.firstBreach = -1
	}
}

func (e *monitored) firstBreachUnset() bool { return e.firstBreach < 0 }

// Violations returns the violations recorded so far, in raise order.
func (m *Monitor) Violations() []Violation {
	out := make([]Violation, len(m.violations))
	copy(out, m.violations)
	return out
}

// NumViolations returns how many violations have been recorded so far
// without copying the record — the per-step poll used by the simulation
// guard loop (Violations copies, which would cost one allocation per
// control step).
func (m *Monitor) NumViolations() int { return len(m.violations) }

// ViolationAt returns the i-th recorded violation (raise order). Together
// with NumViolations it lets callers scan new violations incrementally
// without allocating a snapshot.
func (m *Monitor) ViolationAt(i int) Violation { return m.violations[i] }

// FiredIDs returns the IDs of the assertions with ≥1 violation in
// registration order, which for a catalog monitor is catalog order.
func (m *Monitor) FiredIDs() []string {
	set := map[string]bool{}
	for _, v := range m.violations {
		set[v.AssertionID] = true
	}
	ids := make([]string, 0, len(set))
	for _, e := range m.entries {
		if set[e.a.ID()] {
			ids = append(ids, e.a.ID())
		}
	}
	return ids
}

// FirstViolation returns the earliest-raised violation, if any.
func (m *Monitor) FirstViolation() (Violation, bool) {
	if len(m.violations) == 0 {
		return Violation{}, false
	}
	best := m.violations[0]
	for _, v := range m.violations[1:] {
		if v.T < best.T {
			best = v
		}
	}
	return best, true
}

// FirstViolationAfter returns the earliest violation raised at or after t.
func (m *Monitor) FirstViolationAfter(t float64) (Violation, bool) {
	found := false
	var best Violation
	for _, v := range m.violations {
		if v.T >= t && (!found || v.T < best.T) {
			best, found = v, true
		}
	}
	return best, found
}

// Frames returns how many frames the monitor has processed, and how many
// were skipped as non-finite.
func (m *Monitor) Frames() (processed, skipped int) { return m.frames, m.skippedBad }

// AssertionIDs returns the registered assertion IDs in registration order.
func (m *Monitor) AssertionIDs() []string {
	ids := make([]string, len(m.entries))
	for i, e := range m.entries {
		ids[i] = e.a.ID()
	}
	return ids
}

// Reset clears all state for a fresh run (registered assertions stay),
// flushing the counters first.
func (m *Monitor) Reset() {
	m.Flush()
	for _, e := range m.entries {
		e.reset()
	}
	m.violations = nil
	m.frames, m.skippedBad = 0, 0
	m.pubFrames, m.pubSkipped = 0, 0
}

// --- DSL building blocks -------------------------------------------------

// Extractor pulls one value from a frame; ok=false means not applicable on
// this frame (the debouncer then skips it).
type Extractor func(f *Frame) (v float64, ok bool)

// funcAssertion adapts a closure to the Assertion interface.
type funcAssertion struct {
	id, name, desc string
	sev            Severity
	eval           func(f *Frame, o *Outcome)
	reset          func()
}

func (a *funcAssertion) ID() string          { return a.id }
func (a *funcAssertion) Name() string        { return a.name }
func (a *funcAssertion) Description() string { return a.desc }
func (a *funcAssertion) Severity() Severity  { return a.sev }
func (a *funcAssertion) Eval(f *Frame, out *Outcome) {
	a.eval(f, out)
}
func (a *funcAssertion) Reset() {
	if a.reset != nil {
		a.reset()
	}
}

// NewAssertion wraps an evaluation closure as an Assertion: eval has
// Eval's contract. reset may be nil for stateless assertions.
func NewAssertion(id, name, desc string, sev Severity, eval func(f *Frame, o *Outcome), reset func()) Assertion {
	if id == "" || name == "" || eval == nil {
		panic("core: NewAssertion requires id, name and eval")
	}
	return &funcAssertion{id: id, name: name, desc: desc, sev: sev, eval: eval, reset: reset}
}

// Bound asserts lo ≤ ex(f) ≤ hi on every applicable frame. Use ±Inf for a
// one-sided bound.
func Bound(id, name, desc string, sev Severity, ex Extractor, lo, hi float64) Assertion {
	if lo > hi {
		panic(fmt.Sprintf("core: Bound %s has inverted bounds", id))
	}
	return NewAssertion(id, name, desc, sev, func(f *Frame, o *Outcome) {
		v, ok := ex(f)
		if !ok {
			o.Skip = true
			return
		}
		margin := math.Min(v-lo, hi-v)
		o.Set(v >= lo && v <= hi, margin).And("value", v).And("lo", lo).And("hi", hi)
	}, nil)
}

// Rate asserts |d ex/dt| ≤ maxRate between consecutive applicable frames.
func Rate(id, name, desc string, sev Severity, ex Extractor, maxRate float64) Assertion {
	if maxRate <= 0 {
		panic(fmt.Sprintf("core: Rate %s needs a positive bound", id))
	}
	var prevV, prevT float64
	var has bool
	return NewAssertion(id, name, desc, sev, func(f *Frame, o *Outcome) {
		v, ok := ex(f)
		if !ok {
			o.Skip = true
			return
		}
		if !has {
			prevV, prevT, has = v, f.T, true
			o.Skip = true
			return
		}
		dt := f.T - prevT
		if dt <= 0 {
			o.Skip = true
			return
		}
		rate := math.Abs(v-prevV) / dt
		prevV, prevT = v, f.T
		o.Set(rate <= maxRate, maxRate-rate).And("rate", rate).And("max", maxRate)
	}, func() { has = false })
}

// Consistency asserts |a(f) − b(f)| ≤ tol whenever both extractors apply.
// diff may be overridden (e.g. angular difference); nil means plain
// subtraction.
func Consistency(id, name, desc string, sev Severity, a, b Extractor, diff func(x, y float64) float64, tol float64) Assertion {
	if tol <= 0 {
		panic(fmt.Sprintf("core: Consistency %s needs a positive tolerance", id))
	}
	if diff == nil {
		diff = func(x, y float64) float64 { return x - y }
	}
	return NewAssertion(id, name, desc, sev, func(f *Frame, o *Outcome) {
		x, ok1 := a(f)
		y, ok2 := b(f)
		if !ok1 || !ok2 {
			o.Skip = true
			return
		}
		d := math.Abs(diff(x, y))
		o.Set(d <= tol, tol-d).And("a", x).And("b", y).And("diff", d).And("tol", tol)
	}, nil)
}

// WindowCount asserts that a per-frame event (pred) occurs at most maxCount
// times within any sliding window of the given duration.
func WindowCount(id, name, desc string, sev Severity, pred func(f *Frame) (event, ok bool), window float64, maxCount int) Assertion {
	if window <= 0 || maxCount < 0 {
		panic(fmt.Sprintf("core: WindowCount %s needs positive window and non-negative count", id))
	}
	var times []float64
	return NewAssertion(id, name, desc, sev, func(f *Frame, o *Outcome) {
		event, ok := pred(f)
		if !ok {
			o.Skip = true
			return
		}
		if event {
			times = append(times, f.T)
		}
		// Evict old events, compacting in place so the slice's backing array
		// is reused instead of walking forward through fresh allocations.
		cut := f.T - window
		i := 0
		for i < len(times) && times[i] < cut {
			i++
		}
		if i > 0 {
			n := copy(times, times[i:])
			times = times[:n]
		}
		n := len(times)
		o.Set(n <= maxCount, float64(maxCount-n)).
			And("count", float64(n)).And("max", float64(maxCount)).And("window", window)
	}, func() { times = nil })
}
