package stream_test

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"testing"

	"adassure"
	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/offline"
	"adassure/internal/stream"
)

// diffCase is one track/controller/attack combination of the differential
// suite — together the seven cases cover every built-in track, four
// controllers, five GNSS attack classes, one actuation fault, one clean
// run (exercising the CauseNone path) and one guarded run whose frames
// carry the guard's fallback.
type diffCase struct {
	track      adassure.TrackName
	controller adassure.ControllerName
	attack     adassure.AttackName
	guarded    bool
}

var diffCases = []diffCase{
	{adassure.TrackUrbanLoop, adassure.ControllerPurePursuit, adassure.AttackDriftSpoof, false},
	{adassure.TrackSCurve, adassure.ControllerStanley, adassure.AttackStepSpoof, false},
	{adassure.TrackFigureEight, adassure.ControllerPIDLateral, adassure.AttackFreeze, false},
	{adassure.TrackDoubleLaneChange, adassure.ControllerLQRMPC, adassure.AttackReplay, false},
	{adassure.TrackCircle, adassure.ControllerPurePursuit, adassure.AttackStuckSteer, false},
	{adassure.TrackHairpin, adassure.ControllerStanley, adassure.AttackNone, false},
	{adassure.TrackUrbanLoop, adassure.ControllerLQRMPC, adassure.AttackDropout, true},
}

// record runs one scenario and returns its frame recording. A guarded
// case must fall back: a 20 s GNSS dropout trips the guard's staleness
// trigger.
func record(t *testing.T, c diffCase) *offline.Recording {
	t.Helper()
	res, err := adassure.Scenario{
		Track: c.track, Controller: c.controller, Attack: c.attack,
		AttackStart: 15, AttackEnd: 35, Guarded: c.guarded,
		Seed: 1, Duration: 40, RecordFrames: true,
	}.Run()
	if err != nil {
		t.Fatalf("%v/%v/%v: %v", c.track, c.controller, c.attack, err)
	}
	rec := res.Recording
	if rec == nil || len(rec.Frames) == 0 {
		t.Fatalf("%v/%v/%v: no frames recorded", c.track, c.controller, c.attack)
	}
	if c.guarded && !slices.ContainsFunc(rec.Frames, func(f core.Frame) bool { return f.Fallback }) {
		t.Fatalf("%v/%v/%v: the guarded run never fell back", c.track, c.controller, c.attack)
	}
	return (*offline.Recording)(rec)
}

// ndjson serialises a recording's frames one JSON object per line — the
// stream wire format.
func ndjson(t *testing.T, frames []core.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// chunkReader yields at most chunk bytes per Read, forcing the consumer
// to reassemble lines across arbitrary read boundaries.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestStreamMatchesBatch is the defining contract of the stream package:
// for every track/controller/attack case, feeding the recorded frames
// through a streaming session — via the typed path and via NDJSON split
// at 1-byte, 7-byte and single-chunk read boundaries — yields a violation
// record deep-equal to offline.Recording.Monitor and ranked hypotheses
// deep-equal to offline.Recording.Diagnose. Along the way every rolling
// diagnosis event is checked against a from-scratch batch diagnosis of
// the violations recorded so far, and the violation record reconstructed
// from opened/closed events is checked against the batch wire forms.
func TestStreamMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite runs full scenario simulations")
	}
	cfg := core.CatalogConfig{IncludeGroundTruth: true}
	for _, c := range diffCases {
		c := c
		name := string(c.track) + "/" + string(c.attack)
		if c.guarded {
			name += "/guarded"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := record(t, c)
			wantViolations := rec.Monitor(cfg)
			wantHyps := rec.Diagnose(cfg)
			lines := ndjson(t, rec.Frames)

			feeds := []struct {
				name string
				feed func(t *testing.T, s *stream.Session)
			}{
				{"typed", func(t *testing.T, s *stream.Session) {
					for _, f := range rec.Frames {
						if err := s.Ingest(f); err != nil {
							t.Fatal(err)
						}
					}
				}},
				{"ndjson-chunk-1", func(t *testing.T, s *stream.Session) {
					if err := s.Consume(&chunkReader{data: lines, chunk: 1}); err != nil {
						t.Fatal(err)
					}
				}},
				{"ndjson-chunk-7", func(t *testing.T, s *stream.Session) {
					if err := s.Consume(&chunkReader{data: lines, chunk: 7}); err != nil {
						t.Fatal(err)
					}
				}},
				{"ndjson-all", func(t *testing.T, s *stream.Session) {
					if err := s.Consume(bytes.NewReader(lines)); err != nil {
						t.Fatal(err)
					}
				}},
			}
			for _, feed := range feeds {
				feed := feed
				t.Run(feed.name, func(t *testing.T) {
					runDifferential(t, cfg, rec, wantViolations, wantHyps, feed.feed)
				})
			}
		})
	}
}

func runDifferential(t *testing.T, cfg core.CatalogConfig, rec *offline.Recording,
	wantViolations []core.Violation, wantHyps []diagnosis.Hypothesis,
	feed func(*testing.T, *stream.Session)) {
	t.Helper()

	var s *stream.Session
	var events []stream.Event
	sCfg := stream.Config{
		Catalog: cfg,
		Sink: func(e stream.Event) {
			events = append(events, e)
			if e.Kind == stream.EventDiagnosis {
				// Rolling equivalence: every published ranking must match
				// a from-scratch batch diagnosis of the record so far.
				batch := stream.WireHypothesesOf(diagnosis.Diagnose(s.Violations()))
				if !reflect.DeepEqual(e.Hypotheses, batch) {
					t.Errorf("rolling diagnosis at seq %d diverged from batch\n got: %+v\nwant: %+v",
						e.Seq, e.Hypotheses, batch)
				}
			}
		},
	}
	s, err := stream.New(sCfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s)
	stats := s.Close()

	// Invariant 1: the violation record is the batch record, deep-equal.
	if got := s.Violations(); !reflect.DeepEqual(got, wantViolations) {
		t.Fatalf("streamed violations diverged from batch\n got: %d %+v\nwant: %d %+v",
			len(got), got, len(wantViolations), wantViolations)
	}
	// Invariant 2: the final ranking is the batch ranking, deep-equal.
	if got := s.Diagnose(); !reflect.DeepEqual(got, wantHyps) {
		t.Fatalf("streamed diagnosis diverged from batch\n got: %+v\nwant: %+v", got, wantHyps)
	}
	if stats.Frames != int64(len(rec.Frames)) || stats.Rejected != 0 {
		t.Fatalf("stats = %+v, want %d frames and 0 rejected", stats, len(rec.Frames))
	}
	if stats.Violations != int64(len(wantViolations)) {
		t.Fatalf("stats.Violations = %d, want %d", stats.Violations, len(wantViolations))
	}

	// Invariant 3: the event stream carries the record. Reconstruct the
	// wire violations from opened events, fill durations from closed
	// events, and compare with the batch wire forms.
	checkEventTranscript(t, events, wantViolations, wantHyps)
}

func checkEventTranscript(t *testing.T, evs []stream.Event, wantViolations []core.Violation, wantHyps []diagnosis.Hypothesis) {
	t.Helper()
	var opened []stream.WireViolation
	lastSeq := int64(0)
	sawClosed := false
	for _, e := range evs {
		if e.Seq != lastSeq+1 {
			t.Fatalf("event seq gap: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case stream.EventViolationOpened:
			opened = append(opened, *e.Violation)
		case stream.EventViolationClosed:
			// Stamp the duration onto the matching open entry, exactly as
			// the monitor stamps its record.
			for i := len(opened) - 1; i >= 0; i-- {
				if opened[i].AssertionID == e.Violation.AssertionID && opened[i].Duration == 0 {
					opened[i].Duration = e.Violation.Duration
					break
				}
			}
		case stream.EventSessionClosed:
			sawClosed = true
			if e.Reason != stream.ReasonEOF {
				t.Errorf("close reason = %q, want %q", e.Reason, stream.ReasonEOF)
			}
			if want := stream.WireHypothesesOf(wantHyps); !reflect.DeepEqual(e.Hypotheses, want) {
				t.Errorf("session-closed hypotheses diverged\n got: %+v\nwant: %+v", e.Hypotheses, want)
			}
		}
	}
	if !sawClosed {
		t.Fatal("no session-closed event delivered")
	}
	wantWire := make([]stream.WireViolation, len(wantViolations))
	for i, v := range wantViolations {
		wantWire[i] = stream.WireViolationOf(v)
	}
	if len(wantWire) == 0 {
		if len(opened) != 0 {
			t.Fatalf("events carry %d violations, batch has none", len(opened))
		}
		return
	}
	if !reflect.DeepEqual(opened, wantWire) {
		t.Fatalf("event-reconstructed violations diverged from batch wire forms\n got: %+v\nwant: %+v", opened, wantWire)
	}
}
