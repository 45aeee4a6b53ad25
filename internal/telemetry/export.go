package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"adassure/internal/events"
)

// Schema is the exported-trace schema identifier.
const Schema = "adassure/spans/v1"

// LinkExport is the wire form of a cross-trace link.
type LinkExport struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// SpanExport is the wire form of one finished span.
type SpanExport struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUnixNS / EndUnixNS are wall-clock Unix nanoseconds.
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	DurationNS  int64             `json:"duration_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Links       []LinkExport      `json:"links,omitempty"`
}

// TraceExport is one self-contained trace document — the body of
// GET /debug/traces/<id> and, through Events, of the timeline views.
type TraceExport struct {
	Schema  string       `json:"schema"`
	TraceID string       `json:"trace_id"`
	Spans   []SpanExport `json:"spans"`
	// Dropped counts spans lost to the per-trace cap.
	Dropped int `json:"dropped,omitempty"`
}

// Export returns the retained trace as a serialisable document, spans in
// start-time order. ok is false when the trace is unknown or evicted.
func (t *Tracer) Export(id TraceID) (TraceExport, bool) {
	if t == nil {
		return TraceExport{}, false
	}
	t.mu.Lock()
	rec, ok := t.traces[id]
	if !ok {
		t.mu.Unlock()
		return TraceExport{}, false
	}
	spans := make([]SpanData, len(rec.spans))
	copy(spans, rec.spans)
	dropped := rec.dropped
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	exp := TraceExport{Schema: Schema, TraceID: id.String(), Dropped: dropped,
		Spans: make([]SpanExport, 0, len(spans))}
	for _, sd := range spans {
		se := SpanExport{
			SpanID:      sd.SpanID.String(),
			ParentID:    sd.Parent.String(),
			Name:        sd.Name,
			StartUnixNS: sd.Start,
			EndUnixNS:   sd.End,
			DurationNS:  sd.End - sd.Start,
			Attrs:       sd.Attrs,
		}
		for _, l := range sd.Links {
			se.Links = append(se.Links, LinkExport{TraceID: l.TraceID.String(), SpanID: l.SpanID.String()})
		}
		exp.Spans = append(exp.Spans, se)
	}
	return exp, true
}

// WriteJSON serialises the trace as indented JSON.
func (e TraceExport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("telemetry: encode trace: %w", err)
	}
	return nil
}

// ReadTrace parses a trace previously produced by Export/WriteJSON (e.g.
// fetched from /debug/traces/<id>).
func ReadTrace(r io.Reader) (TraceExport, error) {
	var e TraceExport
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return TraceExport{}, fmt.Errorf("telemetry: decode trace: %w", err)
	}
	if e.Schema != Schema {
		return TraceExport{}, fmt.Errorf("telemetry: unsupported schema %q (want %q)", e.Schema, Schema)
	}
	return e, nil
}

// Events converts the trace into internal/events' timeline model, so a
// request renders (events.WriteTimeline) and exports (events.WritePerfetto)
// through the same writers as a scenario. Each span becomes a Begin and an
// End on the wall clock: the Begin carries its attributes, span_id,
// parent_id and links as labels, the End its duration as the dur_ms attr.
//
// Request spans are not stack-shaped — a miss's cache.lookup is still
// open when queue.wait starts, and a job's job.execute outlives the
// submitting root — so one lane cannot hold them. Spans are packed
// greedily, longest first among equal starts, into lanes trace/<short>,
// trace/<short>#2, … such that every span nests inside the span below it
// on its lane. Sequence numbers follow wall order, which keeps every
// lane's Begin/End pairs balanced for the Chrome trace-event format.
func (e TraceExport) Events() []events.Event {
	spans := make([]SpanExport, len(e.Spans))
	copy(spans, e.Spans)
	for i := range spans { // a wall clock stepped back must not end a span before it starts
		spans[i].EndUnixNS = max(spans[i].EndUnixNS, spans[i].StartUnixNS)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].StartUnixNS != spans[j].StartUnixNS {
			return spans[i].StartUnixNS < spans[j].StartUnixNS
		}
		return spans[i].EndUnixNS > spans[j].EndUnixNS // the enclosing span first
	})
	short := e.TraceID[:min(8, len(e.TraceID))]
	lane := func(i int) string {
		if i == 0 {
			return "trace/" + short
		}
		return fmt.Sprintf("trace/%s#%d", short, i+1)
	}

	var open [][]SpanExport // per lane, the spans still open, innermost last
	var evs []events.Event
	closeUntil := func(i int, t int64) {
		st := open[i]
		for len(st) > 0 && st[len(st)-1].EndUnixNS <= t {
			evs = append(evs, spanEvent(events.End, lane(i), st[len(st)-1]))
			st = st[:len(st)-1]
		}
		open[i] = st
	}
	for _, sp := range spans {
		i := 0
		for ; i < len(open); i++ {
			closeUntil(i, sp.StartUnixNS)
			if st := open[i]; len(st) == 0 || st[len(st)-1].EndUnixNS >= sp.EndUnixNS {
				break
			}
		}
		if i == len(open) {
			open = append(open, nil)
		}
		open[i] = append(open[i], sp)
		evs = append(evs, spanEvent(events.Begin, lane(i), sp))
	}
	for i := range open {
		closeUntil(i, math.MaxInt64)
	}
	// Each lane was emitted in wall order, so a stable sort interleaves
	// the lanes without reordering any lane's events.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Wall < evs[j].Wall })
	for i := range evs {
		evs[i].Seq = uint64(i)
	}
	return evs
}

// spanEvent is the Begin or End record of one span on the given lane.
func spanEvent(kind events.Kind, track string, sp SpanExport) events.Event {
	ev := events.Event{T: events.NoSimTime, Wall: sp.StartUnixNS, Kind: kind,
		Cat: events.CatTrace, Track: track, Name: sp.Name}
	if kind == events.End {
		ev.Wall = sp.EndUnixNS
		ev.Attrs = map[string]float64{"dur_ms": float64(sp.DurationNS) / 1e6}
		return ev
	}
	ev.Labels = make(map[string]string, len(sp.Attrs)+len(sp.Links)+2)
	for k, v := range sp.Attrs {
		ev.Labels[k] = v
	}
	ev.Labels["span_id"] = sp.SpanID
	if sp.ParentID != "" {
		ev.Labels["parent_id"] = sp.ParentID
	}
	for i, l := range sp.Links {
		ev.Labels[fmt.Sprintf("link.%d", i)] = l.TraceID + "/" + l.SpanID
	}
	return ev
}
