package events_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adassure/internal/events"
	"adassure/internal/telemetry"
)

// --- ring buffer properties ---------------------------------------------

// TestRingNeverExceedsCapacity drives rings of assorted capacities with
// random emit counts and checks the flight-recorder contract after every
// single emit: the retained count never exceeds the capacity, sequence
// numbers stay strictly increasing, and the ring always holds exactly the
// newest events (the dropped count accounting for the rest).
func TestRingNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		total := capacity + rng.Intn(4*capacity+10)
		r := events.NewRecorder(capacity).WithoutWallClock()
		for i := 0; i < total; i++ {
			r.Instant(events.CatScenario, "tr", fmt.Sprintf("e%d", i), float64(i), nil)

			if got := r.Len(); got > capacity {
				t.Fatalf("cap %d: Len() = %d after %d emits", capacity, got, i+1)
			}
			evs := r.Events()
			if len(evs) != r.Len() {
				t.Fatalf("cap %d: Events() len %d != Len() %d", capacity, len(evs), r.Len())
			}
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Fatalf("cap %d: seq not increasing: %d after %d", capacity, evs[j].Seq, evs[j-1].Seq)
				}
			}
			// Newest-events invariant: the retained window is exactly the
			// suffix of the emitted stream.
			wantOldest := uint64(0)
			if i+1 > capacity {
				wantOldest = uint64(i + 1 - capacity)
			}
			if len(evs) > 0 && evs[0].Seq != wantOldest {
				t.Fatalf("cap %d: oldest retained seq = %d, want %d", capacity, evs[0].Seq, wantOldest)
			}
			if len(evs) > 0 && evs[len(evs)-1].Seq != uint64(i) {
				t.Fatalf("cap %d: newest retained seq = %d, want %d", capacity, evs[len(evs)-1].Seq, i)
			}
		}
		wantDropped := uint64(0)
		if total > capacity {
			wantDropped = uint64(total - capacity)
		}
		if r.Dropped() != wantDropped {
			t.Errorf("cap %d: Dropped() = %d, want %d", capacity, r.Dropped(), wantDropped)
		}
		if r.Capacity() != capacity {
			t.Errorf("cap %d: Capacity() = %d", capacity, r.Capacity())
		}
	}
}

func TestUnboundedRecorderKeepsEverything(t *testing.T) {
	r := events.NewRecorder(0).WithoutWallClock()
	const n = 500
	for i := 0; i < n; i++ {
		r.Begin(events.CatAttack, "a", "x", float64(i), nil)
	}
	if r.Len() != n || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Fatalf("unbounded recorder: len %d dropped %d cap %d", r.Len(), r.Dropped(), r.Capacity())
	}
}

// TestNonFiniteSimTime checks NaN/Inf timestamps collapse to NoSimTime
// instead of corrupting the stream.
func TestNonFiniteSimTime(t *testing.T) {
	r := events.NewRecorder(0).WithoutWallClock()
	r.Emit(events.Event{Kind: events.Instant, Track: "t", Name: "nan", T: math.NaN()})
	r.Emit(events.Event{Kind: events.Instant, Track: "t", Name: "inf", T: math.Inf(1)})
	for _, e := range r.Events() {
		if e.T != events.NoSimTime {
			t.Errorf("event %q: T = %v, want NoSimTime", e.Name, e.T)
		}
	}
}

// --- nil recorder zero-cost contract ------------------------------------

func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *events.Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Instant(events.CatScenario, "t", "n", 1, nil)
		r.Begin(events.CatAttack, "t", "n", 2, nil)
		r.End(events.CatAttack, "t", "n", 3, nil)
		r.Emit(events.Event{})
		_ = r.Events()
		_ = r.Len()
		_ = r.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkNilRecorder pins the detached-events overhead, mirroring
// BenchmarkNilRegistry in internal/obs: a nil recorder must be a branch,
// not a cost.
func BenchmarkNilRecorder(b *testing.B) {
	var r *events.Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Begin(events.CatViolation, "assertion/A1", "A1", 1.5, nil)
		r.End(events.CatViolation, "assertion/A1", "A1", 2.5, nil)
	}
}

// BenchmarkRingEmit measures the attached flight-recorder hot path.
func BenchmarkRingEmit(b *testing.B) {
	r := events.NewRecorder(1024).WithoutWallClock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Instant(events.CatScenario, "t", "n", float64(i), nil)
	}
}

// --- serialisation ------------------------------------------------------

func TestLogJSONRoundTrip(t *testing.T) {
	r := events.NewRecorder(4).WithoutWallClock()
	for i := 0; i < 7; i++ {
		r.Begin(events.CatViolation, "assertion/A1", "A1 ep", float64(i),
			map[string]float64{"severity": 2, "first_breach": float64(i) - 0.5})
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lg, err := events.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if !reflect.DeepEqual(lg, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", lg, want)
	}
	if lg.Dropped != 3 || lg.Capacity != 4 || len(lg.Events) != 4 {
		t.Fatalf("log header wrong: %+v", lg)
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad schema":  `{"schema":"other/v9","events":[]}`,
		"seq regress": `{"schema":"adassure/events/v1","events":[{"seq":2,"t":1,"kind":"begin","cat":"attack","track":"a","name":"x"},{"seq":1,"t":2,"kind":"end","cat":"attack","track":"a","name":"x"}]}`,
		"not json":    `hello`,
		"bad kind":    `{"schema":"adassure/events/v1","events":[{"seq":0,"t":1,"kind":"zigzag","cat":"attack","track":"a","name":"x"}]}`,
	}
	for name, in := range cases {
		if _, err := events.ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON accepted invalid input", name)
		}
	}
}

// --- timeline ordering --------------------------------------------------

func TestSortForTimeline(t *testing.T) {
	evs := []events.Event{
		{Seq: 0, T: events.NoSimTime, Name: "wall-a"},
		{Seq: 1, T: 5, Name: "sim-late"},
		{Seq: 2, T: 1, Name: "sim-early"},
		{Seq: 3, T: 1, Name: "sim-early-2"},
		{Seq: 4, T: events.NoSimTime, Name: "wall-b"},
	}
	events.SortForTimeline(evs)
	gotNames := make([]string, len(evs))
	for i, e := range evs {
		gotNames[i] = e.Name
	}
	want := []string{"sim-early", "sim-early-2", "sim-late", "wall-a", "wall-b"}
	if !reflect.DeepEqual(gotNames, want) {
		t.Fatalf("order = %v, want %v", gotNames, want)
	}
}

// --- perfetto export ----------------------------------------------------

// traceSpan is one span of a synthetic request trace, stamps in ms after
// a fixed wall-clock epoch.
func traceSpan(name string, startMS, endMS int64) telemetry.SpanExport {
	const epoch = 1_700_000_000_000_000_000 // Unix ns
	start, end := epoch+startMS*1e6, epoch+endMS*1e6
	return telemetry.SpanExport{SpanID: name, Name: name, StartUnixNS: start, EndUnixNS: end, DurationNS: end - start}
}

// traceEvents converts a synthetic span export into timeline events.
func traceEvents(spans ...telemetry.SpanExport) []events.Event {
	return telemetry.TraceExport{Schema: telemetry.Schema, TraceID: "0af7651916cd43dd8448eb211c80319c", Spans: spans}.Events()
}

// TestPerfettoSchema validates the export against the Chrome trace-event
// schema: every entry carries ph/ts/pid/tid, phases are from the known
// set, B/E nest per (pid, tid) — each E closes the innermost open B of the
// same name, with time never running backwards on a lane — and both
// clock-domain processes are named. It runs on a recorded scenario and on
// request traces whose spans are not stack-shaped.
func TestPerfettoSchema(t *testing.T) {
	r := events.NewRecorder(0).WithoutWallClock()
	r.Begin(events.CatScenario, "s0/scenario", "run", 0, map[string]float64{"seed": 1})
	r.Begin(events.CatAttack, "s0/attack", "drift", 20, nil)
	r.Begin(events.CatViolation, "s0/assertion/A13", "A13", 26.5, nil)
	r.End(events.CatViolation, "s0/assertion/A13", "A13", 42.1, nil)
	r.End(events.CatAttack, "s0/attack", "drift", 50, nil)
	r.Instant(events.CatDiagnosis, "s0/diagnosis", "gnss-drift-spoof", 55, map[string]float64{"confidence": 0.25})
	r.End(events.CatScenario, "s0/scenario", "run", 55, nil)
	r.Begin(events.CatRunner, "runner/worker-0", "job 0", events.NoSimTime, nil)
	r.End(events.CatRunner, "runner/worker-0", "job 0", events.NoSimTime, nil)

	cases := []struct {
		name  string
		evs   []events.Event
		lanes int // distinct request-trace lanes, 0 for the scenario
	}{
		{"scenario", r.Events(), 0},
		{"miss: cache.lookup overlaps queue.wait", traceEvents(
			traceSpan("http /v1/run", 0, 100), traceSpan("cache.lookup", 1, 10),
			traceSpan("queue.wait", 5, 20), traceSpan("execute", 20, 90),
			traceSpan("phase.sim+monitor", 21, 80), traceSpan("phase.diagnosis", 80, 89)), 2},
		{"job.execute outlives the root", traceEvents(
			traceSpan("http /v1/jobs", 0, 10), traceSpan("job.execute", 5, 200),
			traceSpan("cache.lookup", 6, 7), traceSpan("queue.wait", 7, 20),
			traceSpan("execute", 20, 190), traceSpan("phase.sim+monitor", 21, 180)), 2},
		{"zero-duration span", traceEvents(
			traceSpan("http /v1/run", 0, 10), traceSpan("cache.lookup", 5, 5),
			traceSpan("queue.wait", 5, 8)), 1},
		{"equal start stamps", traceEvents(
			traceSpan("b", 0, 4), traceSpan("a", 0, 10), traceSpan("c", 4, 10)), 1},
		{"wall clock stepped back inside a span", traceEvents(
			traceSpan("http /v1/run", 0, 10), traceSpan("execute", 5, 3), traceSpan("phase.diagnosis", 6, 9)), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := events.WritePerfetto(&buf, tc.evs); err != nil {
				t.Fatal(err)
			}
			lanes := checkPerfetto(t, buf.Bytes())
			if tc.lanes > 0 && lanes != tc.lanes {
				t.Errorf("%d lanes, want %d", lanes, tc.lanes)
			}
		})
	}
}

// checkPerfetto is the schema check of TestPerfettoSchema; it returns the
// number of lanes that carry request-trace spans.
func checkPerfetto(t *testing.T, doc []byte) int {
	t.Helper()
	var file struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &file); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no traceEvents emitted")
	}

	open := map[string][]string{}
	lastTs := map[string]float64{}
	traceLanes := map[string]bool{}
	processNames := map[string]bool{}
	for i, te := range file.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := te[field]; !ok {
				t.Fatalf("traceEvents[%d] missing required field %q: %v", i, field, te)
			}
		}
		var ph, name, cat string
		if err := json.Unmarshal(te["ph"], &ph); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(te["name"], &name); err != nil {
			t.Fatal(err)
		}
		if raw, ok := te["cat"]; ok {
			if err := json.Unmarshal(raw, &cat); err != nil {
				t.Fatal(err)
			}
		}
		var pid, tid int
		if err := json.Unmarshal(te["pid"], &pid); err != nil {
			t.Fatalf("traceEvents[%d]: pid not a number: %v", i, err)
		}
		if err := json.Unmarshal(te["tid"], &tid); err != nil {
			t.Fatalf("traceEvents[%d]: tid not a number: %v", i, err)
		}
		var ts float64
		if err := json.Unmarshal(te["ts"], &ts); err != nil {
			t.Fatalf("traceEvents[%d]: ts not a number: %v", i, err)
		}
		key := fmt.Sprintf("%d/%d", pid, tid)
		if ph != "M" {
			if prev, ok := lastTs[key]; ok && ts < prev {
				t.Fatalf("traceEvents[%d]: ts %.3f runs backwards on %s (after %.3f)", i, ts, key, prev)
			}
			lastTs[key] = ts
		}
		switch ph {
		case "B":
			open[key] = append(open[key], name)
			if cat == string(events.CatTrace) {
				traceLanes[key] = true
			}
		case "E":
			st := open[key]
			if len(st) == 0 {
				t.Fatalf("traceEvents[%d]: E without matching B on %s", i, key)
			}
			if top := st[len(st)-1]; top != name {
				t.Fatalf("traceEvents[%d]: E %q closes %q on %s: spans overlap without nesting", i, name, top, key)
			}
			open[key] = st[:len(st)-1]
		case "i", "M":
		default:
			t.Fatalf("traceEvents[%d]: unknown phase %q", i, ph)
		}
		if ph == "M" {
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(te["args"], &args); err == nil {
				processNames[args.Name] = true
			}
		}
	}
	for key, st := range open {
		if len(st) != 0 {
			t.Errorf("track %s: %d unclosed B spans", key, len(st))
		}
	}
	for _, want := range []string{"sim-time", "wall-clock"} {
		if !processNames[want] {
			t.Errorf("missing %q process/thread metadata", want)
		}
	}
	return len(traceLanes)
}
