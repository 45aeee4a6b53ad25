package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// spoofRequest is the canonical T4-style scenario of the tests: a GNSS
// drift spoof on the urban loop, which reliably raises violations and a
// gnss-spoofing diagnosis.
func spoofRequest() Request {
	return Request{
		Track:      "urban-loop",
		Controller: "pure-pursuit",
		Attack:     "gnss-drift-spoof",
		Seed:       1,
		Duration:   70,
	}
}

func newTestServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, NewClient(hs.URL)
}

// TestEndToEndSpoofThenCacheHit is the acceptance test: POST a GNSS-spoof
// scenario, receive violations + hypotheses; repeat the request and get a
// byte-identical body served from the cache with no second simulation.
func TestEndToEndSpoofThenCacheHit(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	resp, info, err := c.Run(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if info.Status != http.StatusOK || info.Cache != "miss" {
		t.Fatalf("first run: status %d cache %q, want 200 miss", info.Status, info.Cache)
	}
	if len(resp.Violations) == 0 {
		t.Fatal("spoofed run raised no violations")
	}
	if len(resp.Hypotheses) == 0 {
		t.Fatal("spoofed run produced no hypotheses")
	}
	if !resp.Summary.Detected {
		t.Fatal("spoof not detected post-onset")
	}
	if resp.Hypotheses[0].Cause == "" {
		t.Fatal("top hypothesis has no cause")
	}

	resp2, info2, err := c.Run(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if info2.Cache != "hit" {
		t.Fatalf("second run cache disposition %q, want hit", info2.Cache)
	}
	if !bytes.Equal(info.Body, info2.Body) {
		t.Fatal("cached body differs from fresh body")
	}
	if resp2.Key != resp.Key {
		t.Fatal("cache hit returned a different request key")
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 1 {
		t.Fatalf("simulations run = %d, want 1 (cache must not re-simulate)", got)
	}
	if got := s.Registry().Counter("service.cache.hits").Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// TestDeterministicResponseBytes: with the cache disabled, two fresh
// simulations of the same request produce byte-identical bodies — the
// property the cache's correctness rests on.
func TestDeterministicResponseBytes(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, CacheBytes: -1})
	ctx := context.Background()
	req := spoofRequest()
	req.Bundles = true

	_, info1, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("first fresh run: %v", err)
	}
	_, info2, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("second fresh run: %v", err)
	}
	if info1.Cache != "miss" || info2.Cache != "miss" {
		t.Fatalf("cache dispositions %q/%q, want miss/miss (cache disabled)", info1.Cache, info2.Cache)
	}
	if !bytes.Equal(info1.Body, info2.Body) {
		t.Fatal("two fresh runs of one request produced different bytes")
	}
}

// TestSingleflightCoalescing: with the lone worker wedged, K concurrent
// identical requests collapse onto one queued simulation; every caller
// receives the same bytes and exactly one simulation runs.
func TestSingleflightCoalescing(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// Wedge the only worker so the leader's job sits queued while the
	// followers pile onto the flight call.
	release := make(chan struct{})
	if err := s.pool.TrySubmit(ctx, func(context.Context) { <-release }, nil); err != nil {
		t.Fatalf("wedge: %v", err)
	}

	const K = 6
	req := Request{Attack: "gnss-step-spoof", Duration: 20}
	bodies := make([][]byte, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, info, err := c.Run(ctx, req)
			errs[i] = err
			if info != nil {
				bodies[i] = info.Body
			}
		}(i)
	}
	// Release once every request has either joined the flight (leader +
	// K-1 coalesced) — all K are then waiting on one call.
	deadline := time.Now().Add(10 * time.Second)
	for s.coalesced.Value() < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", s.coalesced.Value(), K-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d received different bytes", i)
		}
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 1 {
		t.Fatalf("simulations run = %d, want exactly 1 for %d coalesced requests", got, K)
	}
}

// TestBadRequests: malformed documents and invalid parameters are 400s
// with a JSON error envelope, before any simulation runs.
func TestBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []Request{
		{Attack: "gnss-teleport"},     // unknown attack
		{Track: "moebius-strip"},      // unknown track
		{Controller: "yolo"},          // unknown controller
		{Duration: -3},                // non-positive duration
		{Duration: 1e9},               // over the server cap
		{Assertions: []string{"A99"}}, // unknown assertion
		{Attack: "gnss-step-spoof", AttackStart: 50, AttackEnd: 10}, // inverted window
	}
	for _, req := range cases {
		_, info, err := c.Run(ctx, req)
		if err == nil {
			t.Fatalf("request %+v succeeded, want 400", req)
		}
		if info.Status != http.StatusBadRequest {
			t.Fatalf("request %+v: status %d, want 400", req, info.Status)
		}
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 0 {
		t.Fatalf("invalid requests triggered %d simulations", got)
	}
}

// TestAssertionSelection: restricting the catalog restricts the
// violation record to the named assertions.
func TestAssertionSelection(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := spoofRequest()
	req.Assertions = []string{"A1", "A4"}
	resp, _, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range resp.Violations {
		if v.AssertionID != "A1" && v.AssertionID != "A4" {
			t.Fatalf("assertion %s fired outside the selected subset", v.AssertionID)
		}
	}
}

// TestBundlesInResponse: Bundles=true attaches one forensic bundle per
// violation episode, each window containing its violation.
func TestBundlesInResponse(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	req := spoofRequest()
	req.Bundles = true
	resp, _, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Bundles) == 0 {
		t.Fatal("no bundles in response despite violations")
	}
	if len(resp.Bundles) != len(resp.Violations) {
		t.Fatalf("%d bundles for %d violations", len(resp.Bundles), len(resp.Violations))
	}
	for i, b := range resp.Bundles {
		if !b.Window.Contains(b.Violation.T) {
			t.Fatalf("bundle %d window misses its violation", i)
		}
	}
}

// TestHealthzMetricsCatalog covers the auxiliary endpoints.
func TestHealthzMetricsCatalog(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, _, err := c.Run(ctx, Request{Duration: 5}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.Counters["service.requests"] < 1 {
		t.Fatalf("metrics snapshot missing service.requests: %v", snap.Counters)
	}
	if snap.Counters["sim.runs"] != 1 {
		t.Fatalf("metrics snapshot sim.runs = %d, want 1", snap.Counters["sim.runs"])
	}
	body, err := c.getJSON(ctx, "/v1/catalog")
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	var cat map[string]any
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatalf("catalog decode: %v", err)
	}
	for _, k := range []string{"tracks", "controllers", "attacks", "assertions", "localizers"} {
		if _, ok := cat[k]; !ok {
			t.Fatalf("catalog missing %q", k)
		}
	}
}

// TestConcurrentMixedLoad drives distinct and identical requests through
// a small pool concurrently — the -race gate for the full serving path.
func TestConcurrentMixedLoad(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := Request{Duration: 5, Seed: int64(1 + i%3)}
				if _, _, err := c.Run(ctx, req); err != nil {
					t.Errorf("worker %d request %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// 3 distinct seeds → exactly 3 simulations, everything else served
	// from cache or coalesced.
	if got := s.Registry().Counter("sim.runs").Value(); got != 3 {
		t.Fatalf("simulations run = %d, want 3", got)
	}
}

// TestCloseDrains: Close waits for an in-flight simulation and the
// response still reaches the client.
func TestCloseDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)

	done := make(chan error, 1)
	go func() {
		_, info, err := c.Run(context.Background(), Request{Duration: 40})
		if err == nil && info.Status != http.StatusOK {
			err = fmt.Errorf("status %d", info.Status)
		}
		done <- err
	}()
	// Wait for the run to start.
	deadline := time.Now().Add(10 * time.Second)
	for s.Registry().Counter("runner.pool.submitted").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("run never submitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("drained request failed: %v", err)
	}
}

// BenchmarkServiceCacheHit measures the full HTTP round trip of a cached
// request — the serving hot path.
func BenchmarkServiceCacheHit(b *testing.B) {
	_, c := newTestServer(b, Config{Workers: 2})
	ctx := context.Background()
	req := Request{Duration: 5}
	if _, _, err := c.Run(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := c.Run(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if info.Cache != "hit" {
			b.Fatalf("disposition %q, want hit", info.Cache)
		}
	}
}

// BenchmarkServiceCacheMiss measures the full round trip including one
// fresh 5-simulated-second run per iteration.
func BenchmarkServiceCacheMiss(b *testing.B) {
	_, c := newTestServer(b, Config{Workers: 2, CacheBytes: -1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := c.Run(ctx, Request{Duration: 5})
		if err != nil {
			b.Fatal(err)
		}
		if info.Cache != "miss" {
			b.Fatalf("disposition %q, want miss", info.Cache)
		}
	}
}
