// Package events is the structured event timeline of the repo — the
// "flight recorder" that answers the question the aggregate metrics layer
// (internal/obs) cannot: *what exactly happened around a violation?* It
// records typed spans and instants — scenario lifecycle, attack windows,
// per-assertion violation episodes, guard fallback intervals, diagnosis
// hypotheses and runner job spans — correlated on simulation time plus
// wall time, so an engineer can line up "the drift spoof switched on at
// t=20 s" with "A13 opened an episode at t=28.4 s" without rerunning the
// simulation.
//
// Design constraints, mirroring internal/obs:
//
//  1. A nil recorder costs nothing. Every method on a nil *Recorder is a
//     single-branch no-op that never reads the clock and never allocates
//     (pinned by BenchmarkNilRecorder / TestNilRecorderZeroAlloc), so the
//     instrumented layers need no "is recording on?" flag of their own.
//  2. Long runs stay O(1) memory. A Recorder built with a positive
//     capacity is a ring buffer: it keeps the newest events, counts what
//     it dropped, and never exceeds its capacity — flight-recorder
//     semantics for long batch runs.
//  3. No dependencies beyond the standard library, so every layer of the
//     repo — including internal/core — can emit events without cycles.
//
// Event streams serialise to JSON (WriteJSON/ReadJSON), render as a
// plain-text timeline (WriteTimeline) and export to the Chrome
// trace-event format loadable in Perfetto or chrome://tracing
// (WritePerfetto).
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Kind distinguishes instantaneous events from span boundaries.
type Kind uint8

// Event kinds.
const (
	// Instant is a point event (a diagnosis hypothesis, a termination).
	Instant Kind = iota
	// Begin opens a span on its track.
	Begin
	// End closes the most recent open span on its track.
	End
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Instant:
		return "instant"
	case Begin:
		return "begin"
	case End:
		return "end"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON serialises the kind as its readable name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the readable name back.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "instant":
		*k = Instant
	case "begin":
		*k = Begin
	case "end":
		*k = End
	default:
		return fmt.Errorf("events: unknown kind %q", s)
	}
	return nil
}

// Category labels the subsystem an event came from.
type Category string

// Event categories, one per instrumented layer.
const (
	CatScenario  Category = "scenario"  // run lifecycle (internal/sim)
	CatAttack    Category = "attack"    // attack activation windows (internal/attacks via sim)
	CatViolation Category = "violation" // assertion episodes (internal/core)
	CatGuard     Category = "guard"     // dead-reckoning fallback intervals (internal/sim)
	CatDiagnosis Category = "diagnosis" // ranked hypotheses (internal/diagnosis)
	CatRunner    Category = "runner"    // worker-pool job spans (internal/runner)
	CatTrace     Category = "trace"     // request-tracing spans (internal/telemetry)
)

// NoSimTime is the T value of events that exist only on the wall clock
// (runner job spans): simulation timestamps are non-negative by
// construction, so a negative T marks "no sim time".
const NoSimTime = -1

// Event is one recorded timeline entry. Events are correlated on two
// clocks: T is deterministic simulation time (seconds; NoSimTime when the
// event has none) and Wall is the wall-clock capture instant in Unix
// nanoseconds (0 when the recorder was built without wall stamps).
type Event struct {
	// Seq is the recorder-assigned monotone sequence number; it survives
	// ring-buffer eviction, so gaps reveal dropped history.
	Seq uint64 `json:"seq"`
	// T is the simulation time in seconds, or NoSimTime.
	T float64 `json:"t"`
	// Wall is the wall-clock capture time, Unix nanoseconds (0 = unknown).
	Wall int64 `json:"wall_ns,omitempty"`
	// Kind is instant, begin or end.
	Kind Kind `json:"kind"`
	// Cat is the source subsystem.
	Cat Category `json:"cat"`
	// Track groups events into one horizontal line of the timeline, e.g.
	// "assertion/A13" or "runner/worker-2". Begin/End pairs match per
	// track. A scope prefix (e.g. "s3/") keeps tracks distinct when many
	// scenarios share one recorder.
	Track string `json:"track"`
	// Name labels the span or instant, e.g. "A13 heading-consistency".
	Name string `json:"name"`
	// Attrs carries numeric evidence (thresholds, confidences, margins).
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Recorder accumulates events. All methods are nil-safe no-ops on a nil
// *Recorder, and safe for concurrent use otherwise — the runner's workers
// and their scenarios share one recorder in batch mode.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event // ring storage when capacity > 0, else append-only
	cap     int     // ring capacity; <= 0 means unbounded
	head    int     // ring write cursor
	size    int     // occupied ring slots
	seq     uint64  // next sequence number
	dropped uint64  // events evicted by the ring
	noWall  bool    // suppress wall stamps (deterministic tests)
}

// NewRecorder builds a recorder. capacity > 0 bounds it to the newest
// `capacity` events (flight-recorder mode, O(1) memory on long runs);
// capacity <= 0 keeps everything.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{cap: capacity}
	if capacity > 0 {
		r.buf = make([]Event, capacity)
	}
	return r
}

// WithoutWallClock disables wall-clock stamping, making the recorded
// stream fully deterministic (used by golden tests). Returns the recorder
// for chaining.
func (r *Recorder) WithoutWallClock() *Recorder {
	if r != nil {
		r.noWall = true
	}
	return r
}

// Enabled reports whether the recorder captures anything — the idiom for
// guarding attrs-map construction at instrumented call sites.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit records one event, stamping Seq and Wall. The zero-cost contract:
// on a nil recorder this is a single branch, no clock read, no
// allocation.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if !r.noWall {
		e.Wall = time.Now().UnixNano()
	}
	if !finite(e.T) {
		e.T = NoSimTime
	}
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	if r.cap > 0 {
		if r.size == r.cap {
			r.dropped++
		} else {
			r.size++
		}
		r.buf[r.head] = e
		r.head = (r.head + 1) % r.cap
	} else {
		r.buf = append(r.buf, e)
	}
	r.mu.Unlock()
}

// Instant records a point event.
func (r *Recorder) Instant(cat Category, track, name string, t float64, attrs map[string]float64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: Instant, Cat: cat, Track: track, Name: name, T: t, Attrs: attrs})
}

// Begin opens a span on the track.
func (r *Recorder) Begin(cat Category, track, name string, t float64, attrs map[string]float64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: Begin, Cat: cat, Track: track, Name: name, T: t, Attrs: attrs})
}

// End closes the most recent open span on the track.
func (r *Recorder) End(cat Category, track, name string, t float64, attrs map[string]float64) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: End, Cat: cat, Track: track, Name: name, T: t, Attrs: attrs})
}

// Events returns the retained events in sequence order (oldest first).
// The slice is a copy; the caller owns it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cap <= 0 {
		out := make([]Event, len(r.buf))
		copy(out, r.buf)
		return out
	}
	out := make([]Event, 0, r.size)
	start := r.head - r.size
	if start < 0 {
		start += r.cap
	}
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(start+i)%r.cap])
	}
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cap <= 0 {
		return len(r.buf)
	}
	return r.size
}

// Capacity returns the ring capacity (0 = unbounded).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	if r.cap <= 0 {
		return 0
	}
	return r.cap
}

// Dropped returns how many events the ring evicted.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Log is the serialised form of a recorded stream.
type Log struct {
	// Schema identifies the format for forward compatibility.
	Schema string `json:"schema"`
	// Capacity echoes the recorder's ring capacity (0 = unbounded).
	Capacity int `json:"capacity,omitempty"`
	// Dropped counts events evicted before the dump.
	Dropped uint64 `json:"dropped,omitempty"`
	// Events holds the retained events, oldest first.
	Events []Event `json:"events"`
}

// LogSchema is the current events-file schema identifier.
const LogSchema = "adassure/events/v1"

// Snapshot captures the recorder as a serialisable Log.
func (r *Recorder) Snapshot() Log {
	return Log{Schema: LogSchema, Capacity: r.Capacity(), Dropped: r.Dropped(), Events: r.Events()}
}

// WriteJSON serialises the recorded stream as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("events: encode log: %w", err)
	}
	return nil
}

// ReadJSON parses a stream previously written by WriteJSON. Events are
// returned in stored order; sequence numbers must be strictly increasing
// so a corrupted or hand-spliced file fails loudly.
func ReadJSON(rd io.Reader) (Log, error) {
	var lg Log
	if err := json.NewDecoder(rd).Decode(&lg); err != nil {
		return Log{}, fmt.Errorf("events: decode log: %w", err)
	}
	if lg.Schema != LogSchema {
		return Log{}, fmt.Errorf("events: unsupported schema %q (want %q)", lg.Schema, LogSchema)
	}
	for i := 1; i < len(lg.Events); i++ {
		if lg.Events[i].Seq <= lg.Events[i-1].Seq {
			return Log{}, fmt.Errorf("events: sequence not increasing at index %d (%d after %d)",
				i, lg.Events[i].Seq, lg.Events[i-1].Seq)
		}
	}
	return lg, nil
}

// SortForTimeline orders events for rendering: by sim time, events
// without one last, ties broken by sequence. The sort is stable with
// respect to capture order on equal timestamps.
func SortForTimeline(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		aw, bw := a.T < 0, b.T < 0
		if aw != bw {
			return bw // events with sim time come first
		}
		if aw { // both wall-only: order by sequence
			return a.Seq < b.Seq
		}
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Seq < b.Seq
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
