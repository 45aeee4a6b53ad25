package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"adassure"
	"adassure/internal/core"
	"adassure/internal/stream"
)

var updateStream = flag.Bool("update-stream", false, "rewrite the golden stream transcript under testdata from the current output")

// replayScenario is the T4-style case of the streaming tests: a GNSS
// replay on the urban loop, deterministic at seed 1.
func replayScenario() adassure.Scenario {
	return adassure.Scenario{
		Track:       adassure.TrackUrbanLoop,
		Controller:  adassure.ControllerPurePursuit,
		Attack:      adassure.AttackReplay,
		AttackStart: 20, AttackEnd: 50,
		Seed: 1, Duration: 40, RecordFrames: true,
	}
}

// recordNDJSON runs the scenario once and renders its frames in the
// stream wire format.
func recordNDJSON(t testing.TB, scn adassure.Scenario) []byte {
	t.Helper()
	res, err := scn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recording == nil || len(res.Recording.Frames) == 0 {
		t.Fatal("scenario recorded no frames")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range res.Recording.Frames {
		if err := enc.Encode(&res.Recording.Frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// cruiseLine renders frame k of a clean synthetic cruise (no assertion
// ever fires) as one NDJSON line.
func cruiseLine(t testing.TB, k int64) []byte {
	t.Helper()
	const dt, v = 0.05, 5.0
	ts := float64(k) * dt
	x := v * ts
	f := core.Frame{
		T: ts, Dt: dt,
		EstX: x, EstSpeed: v, EstPosStdDev: 0.3,
		GNSSX: x, GNSSSpeed: v, GNSSAge: 0.01, GNSSValid: true,
		IMUAge: 0.01, OdomSpeed: v, OdomAge: 0.01,
		RefS: x, TargetSpeed: v, Progress: x,
		NIS: 1, NISFresh: true,
		TrueX: x, TrueSpeed: v,
	}
	b, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// postStream drives the handler directly (no network) and returns the
// response recorder — the deterministic path the golden transcript and
// the limit tests use.
func postStream(t testing.TB, s *Server, query string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/stream"+query, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decodeEvents parses an NDJSON event transcript.
func decodeEvents(t testing.TB, body []byte) []stream.Event {
	t.Helper()
	var out []stream.Event
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e stream.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// TestStreamEndToEndMatchesBatch is the serving-layer acceptance test:
// stream a recorded attack run through POST /v1/stream with the typed
// client and require the event stream to (a) raise the same violations
// the batch endpoint reports for the identical scenario and (b) close
// with exactly the batch hypothesis ranking — the equivalence contract
// surviving the full HTTP round trip.
func TestStreamEndToEndMatchesBatch(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	frames := recordNDJSON(t, replayScenario())
	res, err := c.Stream(ctx, bytes.NewReader(frames), StreamOptions{Heartbeat: 0})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("status = %d", res.Status)
	}
	closed, ok := res.Closed()
	if !ok {
		t.Fatal("no session-closed event")
	}
	if closed.Reason != stream.ReasonEOF || closed.Code != 0 {
		t.Fatalf("close = %q code %d, want eof/0", closed.Reason, closed.Code)
	}

	// The batch answer for the identical scenario.
	resp, _, err := c.Run(ctx, Request{
		Track: "urban-loop", Controller: "pure-pursuit", Attack: "gnss-replay",
		AttackStart: 20, AttackEnd: 50, Seed: 1, Duration: 40,
	})
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	if len(resp.Violations) == 0 {
		t.Fatal("batch run raised no violations — attack case broken")
	}

	var opened []stream.WireViolation
	for _, e := range res.Events {
		if e.Kind == stream.EventViolationOpened {
			opened = append(opened, *e.Violation)
		}
	}
	if len(opened) != len(resp.Violations) {
		t.Fatalf("streamed %d violations, batch %d", len(opened), len(resp.Violations))
	}
	for i := range opened {
		if opened[i].AssertionID != resp.Violations[i].AssertionID || opened[i].T != resp.Violations[i].T {
			t.Fatalf("violation %d: stream %s@%g, batch %s@%g", i,
				opened[i].AssertionID, opened[i].T, resp.Violations[i].AssertionID, resp.Violations[i].T)
		}
	}
	gotHyps, err := json.Marshal(closed.Hypotheses)
	if err != nil {
		t.Fatal(err)
	}
	wantHyps, err := json.Marshal(resp.Hypotheses)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHyps, wantHyps) {
		t.Fatalf("final hypotheses diverged from batch\n got: %s\nwant: %s", gotHyps, wantHyps)
	}
	if closed.Stats == nil || closed.Stats.Rejected != 0 {
		t.Fatalf("close stats = %+v", closed.Stats)
	}

}

// TestStreamGoldenTranscript locks the full NDJSON event transcript of a
// replay-attack session to a committed snapshot: any drift in the event
// wire format, ordering, sequencing or diagnosis content shows up as a
// byte diff in review. Regenerate after an intentional change with:
//
//	go test ./internal/service -run TestStreamGoldenTranscript -update-stream
func TestStreamGoldenTranscript(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Close(context.Background()) })

	frames := recordNDJSON(t, replayScenario())
	rec := postStream(t, s, "?heartbeat=200", frames)
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.Bytes())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	got := rec.Body.Bytes()

	path := filepath.Join("testdata", "stream-transcript-replay.ndjson")
	if *updateStream {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-stream)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream transcript drifted from golden (len %d vs %d); regenerate with -update-stream if intentional",
			len(got), len(want))
	}
	// Sanity on the locked transcript: it must actually carry the attack.
	events := decodeEvents(t, got)
	var openedAny, closedOK bool
	for _, e := range events {
		openedAny = openedAny || e.Kind == stream.EventViolationOpened
		closedOK = closedOK || e.Kind == stream.EventSessionClosed
	}
	if !openedAny || !closedOK {
		t.Fatal("golden transcript missing violation or close events")
	}
}

// TestStreamRateLimitRejects pins the per-session frame-rate limit: a
// client blasting frames far above the configured ceiling is cut off
// with a real 429 when nothing has streamed yet.
func TestStreamRateLimitRejects(t *testing.T) {
	s := New(Config{Workers: 1, Stream: StreamLimits{MaxFrameHz: 5}})
	t.Cleanup(func() { s.Close(context.Background()) })

	var body []byte
	for k := int64(0); k < 50; k++ {
		body = append(body, cruiseLine(t, k)...)
	}
	rec := postStream(t, s, "?heartbeat=0", body)
	if rec.Code != 429 {
		t.Fatalf("status = %d, want 429; body %s", rec.Code, rec.Body.Bytes())
	}
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env["error"] == "" {
		t.Fatalf("429 body is not the JSON error envelope: %s", rec.Body.Bytes())
	}
}

// TestStreamErrorBudget pins both shapes of the malformed-line budget
// breach: a structured 400 when the stream dies before any event, and a
// session-closed event with code 400 once events are already flowing.
func TestStreamErrorBudget(t *testing.T) {
	t.Run("structured-4xx", func(t *testing.T) {
		s := New(Config{Workers: 1, Stream: StreamLimits{ErrorBudget: -1}})
		t.Cleanup(func() { s.Close(context.Background()) })
		rec := postStream(t, s, "?heartbeat=0", []byte("garbage\n"))
		if rec.Code != 400 {
			t.Fatalf("status = %d, want 400; body %s", rec.Code, rec.Body.Bytes())
		}
		var env map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env["error"] == "" {
			t.Fatalf("400 body is not the JSON error envelope: %s", rec.Body.Bytes())
		}
	})
	t.Run("mid-stream-close-event", func(t *testing.T) {
		s := New(Config{Workers: 1, Stream: StreamLimits{ErrorBudget: 2}})
		t.Cleanup(func() { s.Close(context.Background()) })
		body := append([]byte{}, cruiseLine(t, 0)...)
		body = append(body, []byte("bad one\nbad two\nbad three\n")...)
		body = append(body, cruiseLine(t, 1)...) // never reached
		rec := postStream(t, s, "?heartbeat=1", body)
		if rec.Code != 200 {
			t.Fatalf("status = %d, want 200 (events were already flowing)", rec.Code)
		}
		events := decodeEvents(t, rec.Body.Bytes())
		last := events[len(events)-1]
		if last.Kind != stream.EventSessionClosed || last.Reason != stream.ReasonBudget || last.Code != 400 {
			t.Fatalf("last event = %+v, want session-closed error-budget code 400", last)
		}
		var rejects int
		for _, e := range events {
			if e.Kind == stream.EventFrameRejected {
				rejects++
			}
		}
		if rejects != 2 {
			t.Fatalf("frame-rejected events = %d, want 2 (absorbed budget)", rejects)
		}
		if last.Stats == nil || last.Stats.Frames != 1 || last.Stats.Rejected != 3 {
			t.Fatalf("close stats = %+v, want 1 frame / 3 rejected", last.Stats)
		}
	})
}

// TestStreamDurationLimit pins the wall-clock session cap: a session
// that overstays is closed with a duration-limit event carrying code 408
// on the open stream.
func TestStreamDurationLimit(t *testing.T) {
	_, c := newTestServer(t, Config{
		Workers: 1,
		Stream:  StreamLimits{MaxSessionDuration: 150 * time.Millisecond},
	})

	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		pw.Write(cruiseLine(t, 0))
		// Keep the session open past the limit; the server must cut it.
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Stream(ctx, pr, StreamOptions{Heartbeat: 1})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	closed, ok := res.Closed()
	if !ok {
		t.Fatalf("no session-closed event; got %d events", len(res.Events))
	}
	if closed.Reason != stream.ReasonDuration || closed.Code != 408 {
		t.Fatalf("close = %q code %d, want duration-limit/408", closed.Reason, closed.Code)
	}
	if res.Events[0].Kind != stream.EventHeartbeat {
		t.Fatalf("first event = %+v, want the pre-limit heartbeat", res.Events[0])
	}
}

// TestStreamDrainMidSession pins graceful shutdown: Server.Close cuts a
// live session, the client still receives the final session-closed event
// (reason drain, code 503), Close returns promptly, and no goroutines
// leak once everything is torn down.
func TestStreamDrainMidSession(t *testing.T) {
	base := runtime.NumGoroutine()

	s := New(Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	c := NewClient(hs.URL)

	pr, pw := io.Pipe()
	heartbeat := make(chan struct{}, 1)
	type outcome struct {
		res *StreamResult
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := c.Stream(ctx, pr, StreamOptions{
			Heartbeat: 1,
			OnEvent: func(e stream.Event) {
				if e.Kind == stream.EventHeartbeat {
					select {
					case heartbeat <- struct{}{}:
					default:
					}
				}
			},
		})
		got <- outcome{res, err}
	}()

	if _, err := pw.Write(cruiseLine(t, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-heartbeat:
	case <-time.After(5 * time.Second):
		t.Fatal("session never produced its first heartbeat")
	}

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(closeCtx); err != nil {
		t.Fatalf("drain close: %v", err)
	}

	var out outcome
	select {
	case out = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("client stream did not finish after drain")
	}
	if out.err != nil {
		t.Fatalf("stream after drain: %v", out.err)
	}
	closed, ok := out.res.Closed()
	if !ok {
		t.Fatal("drained session delivered no session-closed event")
	}
	if closed.Reason != stream.ReasonDrain || closed.Code != 503 {
		t.Fatalf("close = %q code %d, want drain/503", closed.Reason, closed.Code)
	}

	// A session arriving after drain is refused outright.
	if res, err := c.Stream(context.Background(), bytes.NewReader(cruiseLine(t, 0)), StreamOptions{Heartbeat: 0}); err == nil || res.Status != 503 {
		t.Fatalf("post-drain session: status %d err %v, want 503", res.Status, err)
	}

	pw.Close()
	hs.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after drain: %d > %d base\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamBadParams pins query-string validation. A NaN or infinite
// threshold scale is a 400 like any other bad scale: it must never reach
// the catalog, whose A11 window it would make invalid.
func TestStreamBadParams(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Close(context.Background()) })
	for _, q := range []string{
		"?threshold_scale=NaN",
		"?threshold_scale=Inf",
		"?threshold_scale=-Inf",
		"?threshold_scale=-1",
		"?threshold_scale=0",
		"?threshold_scale=abc",
		"?heartbeat=-2",
		"?assertions=A1,NOPE",
	} {
		rec := postStream(t, s, q, nil)
		if rec.Code != 400 {
			t.Errorf("%s: status = %d, want 400", q, rec.Code)
		}
	}
}

// TestStreamLoad drives concurrent sessions against a live server: 4
// sessions of the same recorded frames, 2 in flight at a time, must each
// close cleanly with frames accepted, violations raised and the batch
// hypothesis ranking.
func TestStreamLoad(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	frames := recordNDJSON(t, replayScenario())
	resp, _, err := c.Run(ctx, Request{
		Track: "urban-loop", Controller: "pure-pursuit", Attack: "gnss-replay",
		AttackStart: 20, AttackEnd: 50, Seed: 1, Duration: 40,
	})
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	wantHyps, err := json.Marshal(resp.Hypotheses)
	if err != nil {
		t.Fatal(err)
	}

	const sessions, inFlight = 4, 2
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < sessions; i += inFlight {
				res, err := c.Stream(ctx, bytes.NewReader(frames), StreamOptions{Heartbeat: 0})
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				closed, ok := res.Closed()
				if !ok || closed.Reason != stream.ReasonEOF || closed.Stats == nil {
					t.Errorf("session %d: close = %+v (closed %v)", i, closed, ok)
					return
				}
				if closed.Frames == 0 || closed.Stats.Violations == 0 || closed.Stats.Rejected != 0 {
					t.Errorf("session %d: frames %d, stats %+v", i, closed.Frames, closed.Stats)
				}
				if got, _ := json.Marshal(closed.Hypotheses); !bytes.Equal(got, wantHyps) {
					t.Errorf("session %d: hypotheses diverged from batch: %s", i, got)
				}
			}
		}(w)
	}
	wg.Wait()
}
