package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"adassure/internal/events"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("root", "")
	h := sp.TraceParent()
	tid, sid, flags, err := ParseTraceParent(h)
	if err != nil {
		t.Fatalf("ParseTraceParent(%q): %v", h, err)
	}
	if tid != sp.TraceID() || sid != sp.SpanID() {
		t.Fatalf("round trip mismatch: %s/%s vs %s/%s", tid, sid, sp.TraceID(), sp.SpanID())
	}
	if flags != FlagSampled {
		t.Fatalf("flags = %02x, want %02x", flags, FlagSampled)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, _, err := ParseTraceParent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // short
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0z",  // bad hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad sep
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011", // version-00 too long
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // future version, no '-' before trailing data
	}
	for _, h := range bad {
		if _, _, _, err := ParseTraceParent(h); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted, want error", h)
		}
	}
	// Forward compatibility: a future version with a trailing field parses.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"
	if _, _, _, err := ParseTraceParent(future); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestRemoteParentPinsTrace(t *testing.T) {
	tr := New(Config{})
	remote := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sp := tr.StartSpan("root", remote)
	if got := sp.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s, want the propagated one", got)
	}
	sp.End()
	exp, ok := tr.Export(sp.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if exp.Spans[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %q, want the remote parent id", exp.Spans[0].ParentID)
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := New(Config{})
	root := tr.StartSpan("http /v1/run", "")
	root.SetAttr("route", "/v1/run")
	cache := root.StartChild("cache.lookup")
	cache.SetAttr("disposition", "miss")
	cache.End()
	q := root.StartChild("queue.wait")
	q.End()
	ex := root.StartChild("execute")
	sim := ex.StartChild("phase.sim+monitor")
	sim.SetInt("steps", 1200)
	sim.End()
	ex.End()
	root.SetAttr("status", "200")
	root.End()

	exp, ok := tr.Export(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(exp.Spans) != 5 {
		t.Fatalf("%d spans, want 5", len(exp.Spans))
	}
	byName := map[string]SpanExport{}
	for _, sp := range exp.Spans {
		byName[sp.Name] = sp
		if sp.EndUnixNS < sp.StartUnixNS {
			t.Fatalf("span %s ends before it starts", sp.Name)
		}
	}
	if byName["cache.lookup"].ParentID != byName["http /v1/run"].SpanID {
		t.Fatal("cache.lookup not parented under the handler span")
	}
	if byName["phase.sim+monitor"].ParentID != byName["execute"].SpanID {
		t.Fatal("sim phase not parented under execute")
	}
	if byName["http /v1/run"].Attrs["status"] != "200" {
		t.Fatalf("root attrs = %v", byName["http /v1/run"].Attrs)
	}

	// JSON round trip.
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TraceID != exp.TraceID || len(back.Spans) != len(exp.Spans) {
		t.Fatalf("round trip lost spans: %+v", back)
	}

	// The timeline conversion carries every span as a Begin/End pair.
	if evs := exp.Events(); len(evs) != 2*len(exp.Spans) {
		t.Fatalf("%d timeline events for %d spans", len(evs), len(exp.Spans))
	}
}

func TestLinksExport(t *testing.T) {
	tr := New(Config{})
	leader := tr.StartSpan("leader", "")
	waiter := tr.StartSpan("waiter", "")
	w := waiter.StartChild("coalesced.wait")
	w.AddLink(leader.TraceID(), leader.SpanID())
	w.End()
	waiter.End()
	leader.End()

	exp, _ := tr.Export(waiter.TraceID())
	var found bool
	for _, sp := range exp.Spans {
		for _, l := range sp.Links {
			if l.TraceID == leader.TraceID().String() && l.SpanID == leader.SpanID().String() {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("link to leader trace not exported")
	}
}

func TestStoreEviction(t *testing.T) {
	tr := New(Config{MaxTraces: 4})
	var roots []*Span
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan(fmt.Sprintf("r%d", i), "")
		sp.End()
		roots = append(roots, sp)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("retained %d traces, want 4", got)
	}
	if _, ok := tr.Export(roots[0].TraceID()); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	if _, ok := tr.Export(roots[9].TraceID()); !ok {
		t.Fatal("newest trace missing")
	}
	ids := tr.TraceIDs()
	if len(ids) != 4 || ids[3] != roots[9].TraceID() {
		t.Fatalf("TraceIDs = %v", ids)
	}

	// Per-trace span cap: spans beyond the cap are counted, not stored.
	root := tr.StartSpan("capped", "")
	for i := 0; i < maxSpansPerTrace+3; i++ {
		c := root.StartChild("child")
		c.End()
	}
	root.End()
	exp, _ := tr.Export(root.TraceID())
	if len(exp.Spans) != maxSpansPerTrace || exp.Dropped != 4 {
		t.Fatalf("spans=%d dropped=%d, want %d/4", len(exp.Spans), exp.Dropped, maxSpansPerTrace)
	}
}

// TestExportEventsOnTraceTrack: a trace converts into wall-clock events
// on its trace/<short> track, each span's Begin (carrying the span's
// attributes, span_id and parent_id as labels) before its End (carrying
// dur_ms).
func TestExportEventsOnTraceTrack(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("http /v1/run", "")
	c := sp.StartChild("cache.lookup")
	c.SetAttr("disposition", "miss")
	c.End()
	sp.End()
	exp, _ := tr.Export(sp.TraceID())

	evs := exp.Events()
	if len(evs) != 4 { // 2 begins + 2 ends
		t.Fatalf("%d events, want 4", len(evs))
	}
	track := "trace/" + sp.TraceID().String()[:8]
	begun := map[string]bool{}
	for i, e := range evs {
		if e.Cat != events.CatTrace || e.Track != track {
			t.Fatalf("event %+v not on the trace track %q", e, track)
		}
		if e.T != events.NoSimTime || e.Wall == 0 {
			t.Fatalf("span event not wall-only: T=%v Wall=%d", e.T, e.Wall)
		}
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		switch e.Kind {
		case events.Begin:
			begun[e.Name] = true
		case events.End:
			if !begun[e.Name] {
				t.Fatalf("%s ends before it begins", e.Name)
			}
			if _, ok := e.Attrs["dur_ms"]; !ok {
				t.Fatalf("%s end carries no dur_ms: %v", e.Name, e.Attrs)
			}
		}
	}
	if evs[0].Kind != events.Begin || evs[0].Name != "http /v1/run" || evs[3].Kind != events.End || evs[3].Name != "http /v1/run" {
		t.Fatalf("root span does not enclose the trace: %+v", evs)
	}
	want := map[string]string{"disposition": "miss", "span_id": c.SpanID().String(), "parent_id": sp.SpanID().String()}
	if got := evs[1].Labels; evs[1].Name != "cache.lookup" || !reflect.DeepEqual(got, want) {
		t.Fatalf("cache.lookup begin labels = %v, want %v", got, want)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{MaxTraces: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartSpan(fmt.Sprintf("g%d", g), "")
				c := sp.StartChild("child")
				c.SetAttr("i", "x")
				c.End()
				sp.End()
				tr.Export(sp.TraceID())
				tr.TraceIDs()
			}
		}(g)
	}
	wg.Wait()
	if tr.Started() != 400 {
		t.Fatalf("started = %d, want 400", tr.Started())
	}
}

func TestIDUniqueness(t *testing.T) {
	tr := New(Config{MaxTraces: 2048})
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		sp := tr.StartSpan("x", "")
		if seen[sp.TraceID()] {
			t.Fatalf("duplicate trace id after %d spans", i)
		}
		seen[sp.TraceID()] = true
		sp.End()
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartSpan("once", "")
	sp.End()
	sp.End()
	exp, _ := tr.Export(sp.TraceID())
	if len(exp.Spans) != 1 {
		t.Fatalf("double End stored %d spans", len(exp.Spans))
	}
}
