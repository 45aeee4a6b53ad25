package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adassure/internal/events"
	"adassure/internal/telemetry"
)

// tracedConfig is the test server configuration with the trace store on.
func tracedConfig(workers int) Config {
	return Config{Workers: workers, Tracer: telemetry.New(telemetry.Config{})}
}

// postRunTraced POSTs one run request with an explicit traceparent header
// (the raw-HTTP path Client.Run does not expose) and returns the response
// status, headers and body.
func postRunTraced(t *testing.T, c *Client, req Request, traceparent string) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hres.Body); err != nil {
		t.Fatal(err)
	}
	return hres, buf.Bytes()
}

// fetchTrace pulls one span export off the server and parses it.
func fetchTrace(t *testing.T, c *Client, id string) telemetry.TraceExport {
	t.Helper()
	raw, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatalf("fetch trace %s: %v", id, err)
	}
	exp, err := telemetry.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse trace %s: %v", id, err)
	}
	return exp
}

// spanNames collects the set of span names in an export.
func spanNames(exp telemetry.TraceExport) map[string]telemetry.SpanExport {
	m := make(map[string]telemetry.SpanExport, len(exp.Spans))
	for _, sp := range exp.Spans {
		m[sp.Name] = sp
	}
	return m
}

// TestTraceEndToEndRun is the tentpole acceptance test: a request
// carrying a W3C traceparent keeps its trace ID through the full path,
// and the exported trace covers handler, cache, queue wait, execution
// and both simulation phases.
func TestTraceEndToEndRun(t *testing.T) {
	_, c := newTestServer(t, tracedConfig(2))
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

	hres, body := postRunTraced(t, c, Request{Attack: "gnss-drift-spoof", Duration: 30}, parent)
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hres.StatusCode, body)
	}
	const wantTrace = "0af7651916cd43dd8448eb211c80319c"
	if got := hres.Header.Get(TraceHeader); got != wantTrace {
		t.Fatalf("%s = %q, want the propagated trace %q", TraceHeader, got, wantTrace)
	}
	if tp := hres.Header.Get("traceparent"); !strings.HasPrefix(tp, "00-"+wantTrace+"-") {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, wantTrace)
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != wantTrace {
		t.Fatalf("body trace_id %q, want %q", resp.TraceID, wantTrace)
	}
	if len(resp.Bundles) > 0 && resp.Bundles[0].TraceID != wantTrace {
		t.Fatalf("bundle trace_id %q, want %q", resp.Bundles[0].TraceID, wantTrace)
	}

	exp := fetchTrace(t, c, wantTrace)
	names := spanNames(exp)
	for _, want := range []string{
		"http /v1/run", "cache.lookup", "queue.wait", "execute",
		"phase.sim+monitor", "phase.diagnosis",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("trace missing span %q (have %d spans)", want, len(exp.Spans))
		}
	}
	if httpSpan := names["http /v1/run"]; httpSpan.Attrs["status"] != "200" {
		t.Errorf("http span status attr = %q, want 200", httpSpan.Attrs["status"])
	}
	if lookup := names["cache.lookup"]; lookup.Attrs["disposition"] != "miss" {
		t.Errorf("cache.lookup disposition = %q, want miss", lookup.Attrs["disposition"])
	}
	if ex := names["execute"]; ex.Attrs["violations"] == "" || ex.Attrs["violations"] == "0" {
		t.Errorf("execute span violations attr = %q, want > 0 for a spoofed run", ex.Attrs["violations"])
	}
	checkTimeline(t, exp, "http /v1/run", "queue.wait", "execute", "phase.sim+monitor")
}

// TestJobTraceCorrelation: an async submission's trace is named by the 202,
// and its queue.wait, execute and phase spans outlive the submitting
// request's root span, yet still nest on every lane.
func TestJobTraceCorrelation(t *testing.T) {
	_, c := newTestServer(t, tracedConfig(2))
	doc, err := json.Marshal(Request{Attack: "gnss-step-spoof", Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	aresp, _ := postAsync(t, c, "/v1/run", doc)
	if aresp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, want 202", aresp.StatusCode)
	}
	if resp, body := pollResult(t, c, aresp.Header.Get("Location")); resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: status %d (body %s)", resp.StatusCode, body)
	}
	traceID := aresp.Header.Get(TraceHeader)
	if traceID == "" {
		t.Fatalf("202 carries no %s header", TraceHeader)
	}
	exp := fetchTrace(t, c, traceID)
	names := spanNames(exp)
	if root, ex := names["http /v1/run"], names["execute"]; ex.EndUnixNS <= root.EndUnixNS {
		t.Errorf("async execute span ends at %d, not after its root (%d)", ex.EndUnixNS, root.EndUnixNS)
	}
	checkTimeline(t, exp, "http /v1/run", "queue.wait", "execute", "phase.sim+monitor")
}

// checkTimeline takes a fetched trace through the timeline model and the
// Chrome trace-event writer, and checks that every lane's B/E pairs nest,
// that the named spans are present, and that cache.lookup's disposition
// label survives the conversion.
func checkTimeline(t *testing.T, exp telemetry.TraceExport, names ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := events.WritePerfetto(&buf, exp.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	open := map[int][]string{}
	seen := map[string]bool{}
	for _, te := range doc.TraceEvents {
		switch te.Ph {
		case "B":
			open[te.Tid] = append(open[te.Tid], te.Name)
			seen[te.Name] = true
			if te.Name == "cache.lookup" && te.Args["disposition"] != "miss" {
				t.Errorf("cache.lookup disposition label = %v, want miss", te.Args["disposition"])
			}
		case "E":
			st := open[te.Tid]
			if len(st) == 0 || st[len(st)-1] != te.Name {
				t.Fatalf("trace %s: E %q does not close the innermost open span on lane %d (open %v)",
					exp.TraceID, te.Name, te.Tid, st)
			}
			open[te.Tid] = st[:len(st)-1]
		}
	}
	for tid, st := range open {
		if len(st) != 0 {
			t.Errorf("trace %s: lane %d leaves %v open", exp.TraceID, tid, st)
		}
	}
	for _, name := range append(names, "cache.lookup") {
		if !seen[name] {
			t.Errorf("trace %s: perfetto export missing span %q", exp.TraceID, name)
		}
	}
}

// TestCacheHitKeepsExecutingTrace: cached bytes stay byte-identical, so
// the body's trace_id keeps naming the run that produced them while the
// response header carries the second request's own trace — whose spans
// show a cache hit and no execution.
func TestCacheHitKeepsExecutingTrace(t *testing.T) {
	_, c := newTestServer(t, tracedConfig(2))
	ctx := context.Background()
	req := Request{Attack: "gnss-drift-spoof", Duration: 25}

	resp1, info1, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info1.TraceID == "" || resp1.TraceID != info1.TraceID {
		t.Fatalf("first run: header trace %q, body trace %q — want equal and non-empty",
			info1.TraceID, resp1.TraceID)
	}

	resp2, info2, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Cache != "hit" {
		t.Fatalf("second run disposition %q, want hit", info2.Cache)
	}
	if !bytes.Equal(info1.Body, info2.Body) {
		t.Fatal("cache hit returned different bytes")
	}
	if info2.TraceID == info1.TraceID {
		t.Fatal("second request reused the first request's trace ID")
	}
	if resp2.TraceID != info1.TraceID {
		t.Fatalf("cached body trace_id %q, want the executing run's %q", resp2.TraceID, info1.TraceID)
	}

	names := spanNames(fetchTrace(t, c, info2.TraceID))
	if lookup, ok := names["cache.lookup"]; !ok || lookup.Attrs["disposition"] != "hit" {
		t.Fatalf("hit trace cache.lookup = %+v, want disposition hit", lookup)
	}
	if _, ok := names["execute"]; ok {
		t.Fatal("cache hit trace contains an execute span")
	}
}

// TestCoalescedFollowersLinkLeader: followers joining a single-flight
// call get their own trace, whose coalesced.wait span links to the
// leader's trace so the one real execution is reachable from every
// coalesced request.
func TestCoalescedFollowersLinkLeader(t *testing.T) {
	s, c := newTestServer(t, tracedConfig(1))
	s.cfg.QueueDepth = 4
	ctx := context.Background()

	release := make(chan struct{})
	if err := s.pool.TrySubmit(ctx, func(context.Context) { <-release }, nil); err != nil {
		t.Fatalf("wedge: %v", err)
	}

	const K = 5
	req := Request{Attack: "gnss-step-spoof", Duration: 20}
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Run(ctx, req); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.coalesced.Value() < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", s.coalesced.Value(), K-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var leaders, linked int
	for _, id := range s.Tracer().TraceIDs() {
		exp, ok := s.Tracer().Export(id)
		if !ok {
			continue
		}
		names := spanNames(exp)
		if _, ok := names["execute"]; ok {
			leaders++
		}
		if wait, ok := names["coalesced.wait"]; ok {
			if len(wait.Links) == 0 {
				t.Errorf("trace %s coalesced.wait has no link to the leader", exp.TraceID)
				continue
			}
			linked++
			if wait.Attrs["executing_trace"] != wait.Links[0].TraceID {
				t.Errorf("executing_trace attr %q != link %q",
					wait.Attrs["executing_trace"], wait.Links[0].TraceID)
			}
		}
	}
	if leaders != 1 {
		t.Errorf("executing traces = %d, want exactly 1", leaders)
	}
	if linked != K-1 {
		t.Errorf("linked follower traces = %d, want %d", linked, K-1)
	}
}

// TestReadyzDrain: readiness reports ready with queue occupancy, flips to
// a 503 "draining" after BeginDrain, while liveness stays 200.
func TestReadyzDrain(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	ready, status, err := c.Readyz(ctx)
	if err != nil || !ready || status != "ready" {
		t.Fatalf("fresh server: ready=%v status=%q err=%v, want ready", ready, status, err)
	}

	s.BeginDrain()
	ready, status, err = c.Readyz(ctx)
	if err != nil || ready || status != "draining" {
		t.Fatalf("after BeginDrain: ready=%v status=%q err=%v, want 503 draining", ready, status, err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("liveness must survive a drain: %v", err)
	}
	// Admission stays open during the drain: work still completes.
	if _, info, err := c.Run(ctx, Request{Duration: 20}); err != nil || info.Status != http.StatusOK {
		t.Fatalf("run during drain: status %v err %v", info, err)
	}

	body, err := c.getJSON(ctx, "/readyz")
	if err == nil {
		t.Fatalf("GET /readyz while draining returned 200: %s", body)
	}
}

// TestBuildinfoEndpoint: /debug/buildinfo reports the toolchain and
// module identity.
func TestBuildinfoEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	raw, err := c.getJSON(context.Background(), "/debug/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GoVersion string `json:"go_version"`
		Path      string `json:"path"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GoVersion == "" {
		t.Error("buildinfo missing go_version")
	}
}

// TestFreshServerSimCounters: before any run, /metrics already carries
// the simulation counters at zero, so a scrape tells "no runs yet" apart
// from "not instrumented".
func TestFreshServerSimCounters(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	doc, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("strict exposition parse: %v", err)
	}
	for _, name := range []string{"sim_runs_total", "sim_steps_total"} {
		if total, n := doc.Sum(name); n != 1 || total != 0 {
			t.Errorf("%s = %v over %d series, want 0 over 1", name, total, n)
		}
	}
}

// TestMetricsPromScrape: after one traced run, /metrics parses under the
// strict exposition reader, reports the simulation counter, carries a
// trace-ID exemplar on the request-latency histogram, and labels the
// per-route HTTP counter.
func TestMetricsPromScrape(t *testing.T) {
	_, c := newTestServer(t, tracedConfig(1))
	ctx := context.Background()

	_, info, err := c.Run(ctx, Request{Attack: "gnss-drift-spoof", Duration: 25})
	if err != nil {
		t.Fatal(err)
	}

	doc, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("strict exposition parse: %v", err)
	}
	if total, n := doc.Sum("sim_runs_total"); n != 1 || total != 1 {
		t.Errorf("sim_runs_total = %v over %d series, want 1", total, n)
	}
	if !doc.HasExemplar("service_request_ns") {
		t.Error("service_request_ns carries no trace_id exemplar")
	}
	var routeSeries bool
	if f := doc.Family("service_http_requests"); f != nil {
		for _, s := range f.Samples {
			if s.Labels["route"] == "/v1/run" && s.Labels["status"] == "200" && s.Value >= 1 {
				routeSeries = true
			}
		}
	}
	if !routeSeries {
		t.Error(`missing service_http_requests_total{route="/v1/run",status="200"} series`)
	}
	// The exemplar names a real, retrievable trace.
	if f := doc.Family("service_request_ns"); f != nil {
		for _, s := range f.Samples {
			if s.Exemplar != nil {
				if id := s.Exemplar.Labels["trace_id"]; id != info.TraceID {
					t.Errorf("exemplar trace_id %q, want the run's %q", id, info.TraceID)
				}
				break
			}
		}
	}
}

// TestStreamTraceAndBypass: streaming sessions bypass the cache, carry
// their own trace, and close with the session outcome stamped on the
// request span.
func TestStreamTraceAndBypass(t *testing.T) {
	_, c := newTestServer(t, tracedConfig(1))
	frames := recordNDJSON(t, replayScenario())

	res, err := c.Stream(context.Background(), bytes.NewReader(frames), StreamOptions{Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "bypass" {
		t.Fatalf("stream cache disposition %q, want bypass", res.Cache)
	}
	if res.TraceID == "" {
		t.Fatal("stream response carries no trace ID")
	}
	names := spanNames(fetchTrace(t, c, res.TraceID))
	sp, ok := names["http /v1/stream"]
	if !ok {
		t.Fatal("trace missing the http /v1/stream span")
	}
	if sp.Attrs["close_reason"] != "eof" {
		t.Errorf("close_reason = %q, want eof", sp.Attrs["close_reason"])
	}
	if sp.Attrs["frames"] == "" || sp.Attrs["frames"] == "0" {
		t.Errorf("frames attr = %q, want > 0", sp.Attrs["frames"])
	}
}

// TestUntracedServerOmitsTraceSurface: with the default nil tracer the
// response exposes no trace identity anywhere — the byte-determinism
// guarantees of the cache are untouched — and the trace endpoints answer
// 404.
func TestUntracedServerOmitsTraceSurface(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	resp, info, err := c.Run(ctx, Request{Duration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if info.TraceID != "" || resp.TraceID != "" {
		t.Fatalf("untraced server leaked trace IDs: header %q body %q", info.TraceID, resp.TraceID)
	}
	if !bytes.Contains(info.Body, []byte(`"key"`)) || bytes.Contains(info.Body, []byte(`"trace_id"`)) {
		t.Fatal("untraced body must omit the trace_id field entirely")
	}
	if _, err := c.Trace(ctx, "0af7651916cd43dd8448eb211c80319c"); err == nil {
		t.Fatal("trace fetch on an untraced server must fail")
	}
}
