package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// keyedKind is one row of the pipeline suite: a keyed endpoint and the
// request documents each property needs.
type keyedKind struct {
	name string
	path string
	// body is a small valid request; explicit spells the same canonical
	// request with its defaults written out.
	body, explicit string
	// slow cannot finish inside a 30 ms budget (MaxDuration 1000).
	slow string
	// bad holds documents that fail canonicalization.
	bad []string
}

// keyedKinds are the three request kinds of the keyed pipeline. Every
// property test below runs once per row: the pipeline is one code path,
// so every kind must show the same behaviour.
var keyedKinds = []keyedKind{
	{
		name: "run",
		path: "/v1/run",
		body: `{"seed": 2, "duration": 5}`,
		explicit: `{"track": "urban-loop", "controller": "pure-pursuit", "attack": "none",
			"seed": 2, "duration": 5, "speed_limit": 6, "threshold_scale": 1, "localizer": "ekf",
			"attack_start": 33, "attack_end": 44}`, // the window is decorative without an attack
		slow: `{"duration": 300}`,
		bad:  []string{`{"attack": "gnss-teleport"}`, `{"assertions": ["A99"]}`},
	},
	{
		name: "mutate",
		path: "/v1/mutate",
		body: `{"tracks": ["urban-loop"], "mutants": [{"op": "ctrl-gain-scale"}], "duration": 10}`,
		explicit: `{"controller": "pure-pursuit", "tracks": ["urban-loop"],
			"mutants": [{"op": "ctrl-gain-scale", "param": 3}], "seed": 1, "duration": 10}`,
		slow: `{"tracks": ["urban-loop"], "duration": 600}`,
		bad:  []string{`{"mutants": [{"op": "ctrl-teleport"}]}`},
	},
	{
		name: "search",
		path: "/v1/search",
		body: `{"tracks": ["urban-loop"], "channels": [{"op": "sense-gnss-quantize", "min": 0.05, "max": 2.5}],
			"budget": 4, "duration": 15}`,
		explicit: `{"controller": "pure-pursuit", "tracks": ["urban-loop"], "mode": "descent",
			"channels": [{"op": "sense-gnss-quantize", "min": 0.05, "max": 2.5}],
			"seed": 1, "budget": 4, "duration": 15}`,
		slow: `{"tracks": ["urban-loop"], "channels": [{"op": "sense-gnss-quantize"}], "budget": 8, "duration": 600}`,
		bad:  []string{`{"mode": "anneal"}`, `{"assertions": ["A1", "A99"]}`},
	},
}

// postJSON posts a raw JSON body to path and returns the response with its
// body read.
func postJSON(t *testing.T, c *Client, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.httpClient().Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func simRuns(s *Server) int64 { return s.Registry().Counter("sim.runs").Value() }

// TestKeyedMissThenHit: the first request executes, the repeat is served
// from the cache with byte-identical bytes and no second execution.
func TestKeyedMissThenHit(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 2})
			resp, body := postJSON(t, c, k.path, []byte(k.body))
			if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
				t.Fatalf("first call: status %d cache %q, want 200 miss (body %s)",
					resp.StatusCode, resp.Header.Get(CacheHeader), body)
			}
			runs := simRuns(s)
			if runs == 0 {
				t.Fatal("a miss ran no simulation")
			}
			resp2, body2 := postJSON(t, c, k.path, []byte(k.body))
			if got := resp2.Header.Get(CacheHeader); got != "hit" {
				t.Fatalf("second call disposition %q, want hit", got)
			}
			if !bytes.Equal(body, body2) {
				t.Fatal("cached body differs from fresh body")
			}
			if got := simRuns(s); got != runs {
				t.Fatalf("sim.runs = %d after the hit, want %d (cache must not re-execute)", got, runs)
			}
		})
	}
}

// TestCanonicalizationSharesCacheEntry: a request spelled with explicit
// defaults hits the cache entry of the bare request.
func TestCanonicalizationSharesCacheEntry(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1})
			if resp, body := postJSON(t, c, k.path, []byte(k.body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("bare request: status %d, body %s", resp.StatusCode, body)
			}
			runs := simRuns(s)
			resp, body := postJSON(t, c, k.path, []byte(k.explicit))
			if got := resp.Header.Get(CacheHeader); got != "hit" {
				t.Fatalf("explicit spelling missed the cache (disposition %q, body %s)", got, body)
			}
			if got := simRuns(s); got != runs {
				t.Fatalf("sim.runs = %d, want %d", got, runs)
			}
		})
	}
}

// TestQueueFullReturns429: with the worker wedged and the queue full, a
// distinct request is shed with 429 + Retry-After instead of blocking.
func TestQueueFullReturns429(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
			ctx := context.Background()

			running := make(chan struct{})
			release := make(chan struct{})
			var releaseOnce sync.Once
			unwedge := func() { releaseOnce.Do(func() { close(release) }) }
			defer unwedge()
			if err := s.pool.TrySubmit(ctx, func(context.Context) { close(running); <-release }, nil); err != nil {
				t.Fatalf("wedge: %v", err)
			}
			// Wait until the worker has dequeued the wedge: the queue slot
			// the poll below observes must belong to the filler request, not
			// the wedge — otherwise the request under test could be admitted
			// instead of shed and block on the wedged worker forever.
			<-running
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := c.Run(ctx, Request{Duration: 5}); err != nil {
					t.Errorf("queued request: %v", err)
				}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for s.pool.QueueLen() < 1 {
				if time.Now().After(deadline) {
					t.Fatal("queued request never reached the admission queue")
				}
				time.Sleep(time.Millisecond)
			}

			// A different request cannot coalesce and must be shed.
			resp, body := postJSON(t, c, k.path, []byte(k.body))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Retry-After"); got != "2" {
				t.Fatalf("Retry-After = %q, want \"2\"", got)
			}
			errorEnvelope(t, body)
			if got := s.Registry().Counter("service.queue_full").Value(); got != 1 {
				t.Fatalf("queue_full counter = %d, want 1", got)
			}
			if k.name == "run" {
				// The typed client surfaces the same answer.
				var qf *QueueFullError
				if _, _, err := c.Run(ctx, Request{Duration: 5, Seed: 99}); !errors.As(err, &qf) || qf.RetryAfter != 2*time.Second {
					t.Fatalf("client: want QueueFullError with 2s Retry-After, got %v", err)
				}
			}

			unwedge()
			wg.Wait()
		})
	}
}

// TestQueueFullRetryAfterHint: both client calls type a 429 through one
// parser, which falls back to one second when the hint is absent,
// malformed or not positive.
func TestQueueFullRetryAfterHint(t *testing.T) {
	for hint, want := range map[string]time.Duration{
		"3": 3 * time.Second, "": time.Second, "soon": time.Second, "0": time.Second, "-4": time.Second,
	} {
		h := http.Header{}
		if hint != "" {
			h.Set("Retry-After", hint)
		}
		if got := queueFull(h).RetryAfter; got != want {
			t.Errorf("Retry-After %q: got %s, want %s", hint, got, want)
		}
	}
}

// TestPerRequestTimeout: an execution exceeding the per-request budget is
// cancelled inside the step loop, answered with 504 and not cached.
func TestPerRequestTimeout(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1, Timeout: 30 * time.Millisecond, MaxDuration: 1000})
			resp, body := postJSON(t, c, k.path, []byte(k.slow))
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
			}
			errorEnvelope(t, body)
			if got := s.Registry().Counter("service.timeouts").Value(); got != 1 {
				t.Fatalf("timeouts counter = %d, want 1", got)
			}
			if s.cache.len() != 0 {
				t.Fatal("timed-out execution was cached")
			}
		})
	}
}

// TestKeyedBadRequest: a malformed, over-specified or invalid document
// is a 400 with the JSON error envelope, answered before any simulation
// runs. Each kind's own test table covers its validation messages.
func TestKeyedBadRequest(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1})
			cases := []struct{ doc, want string }{
				{`{"seed": `, "decode request: "},
				{`{"no_such_field": 1}`, "decode request: "},
			}
			for _, doc := range k.bad {
				cases = append(cases, struct{ doc, want string }{doc, "invalid request: "})
			}
			for _, tc := range cases {
				resp, body := postJSON(t, c, k.path, []byte(tc.doc))
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400 (body %s)", tc.doc, resp.StatusCode, body)
				}
				if msg := errorEnvelope(t, body); !strings.HasPrefix(msg, tc.want) {
					t.Fatalf("%s: error %q, want prefix %q", tc.doc, msg, tc.want)
				}
			}
			if got := s.Registry().Counter("service.bad_requests").Value(); got != int64(len(cases)) {
				t.Fatalf("bad_requests counter = %d, want %d", got, len(cases))
			}
			if got := simRuns(s); got != 0 {
				t.Fatalf("invalid requests triggered %d simulations", got)
			}
		})
	}
}
