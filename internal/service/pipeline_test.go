package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adassure/internal/store"
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
		slow: `{"duration": 1000}`,
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
	return post(t, c, path, body, "")
}

// postAsync posts a raw JSON body to path with Prefer: respond-async.
func postAsync(t *testing.T, c *Client, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return post(t, c, path, body, "respond-async")
}

func post(t *testing.T, c *Client, path string, body []byte, prefer string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if prefer != "" {
		req.Header.Set("Prefer", prefer)
	}
	return do(t, c, req)
}

// getPath GETs one path of the server.
func getPath(t *testing.T, c *Client, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, c, req)
}

// do sends req and returns the response with its body read.
func do(t *testing.T, c *Client, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := c.httpClient().Do(req)
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

// pollResult GETs an async submission's Location until it answers
// anything but 202.
func pollResult(t *testing.T, c *Client, location string) (*http.Response, []byte) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := getPath(t, c, location)
		if resp.StatusCode != http.StatusAccepted {
			return resp, body
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still in flight after 60 s", location)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// acceptedKey checks a 202 answer to an async submission and returns the
// key it names.
func acceptedKey(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, want 202 (body %s)", resp.StatusCode, body)
	}
	var doc struct{ Key string }
	if err := json.Unmarshal(body, &doc); err != nil || !isKey(doc.Key) {
		t.Fatalf("202 body %s does not carry a key (%v)", body, err)
	}
	if got := resp.Header.Get("Location"); got != "/v1/results/"+doc.Key {
		t.Fatalf("Location %q, want /v1/results/%s", got, doc.Key)
	}
	if got := resp.Header.Get("Preference-Applied"); got != "respond-async" {
		t.Fatalf("Preference-Applied %q, want respond-async", got)
	}
	return doc.Key
}

func simRuns(s *Server) int64 { return s.Registry().Counter("sim.runs").Value() }

// TestAsyncMatchesSync: an async submission's polled body is
// byte-identical to a synchronous execution of the same request on
// another server, it fills the entry the synchronous path then hits, and
// resubmitting it executes nothing.
func TestAsyncMatchesSync(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			_, cSync := newTestServer(t, Config{Workers: 2})
			sresp, want := postJSON(t, cSync, k.path, []byte(k.body))
			if sresp.StatusCode != http.StatusOK {
				t.Fatalf("sync call: status %d (body %s)", sresp.StatusCode, want)
			}

			s, c := newTestServer(t, Config{Workers: 2})
			resp, body := postAsync(t, c, k.path, []byte(k.body))
			acceptedKey(t, resp, body)
			if got := resp.Header.Get(CacheHeader); got != "miss" {
				t.Fatalf("first async submit disposition %q, want miss", got)
			}
			presp, got := pollResult(t, c, resp.Header.Get("Location"))
			if presp.StatusCode != http.StatusOK || presp.Header.Get(CacheHeader) != "hit" {
				t.Fatalf("poll: status %d disposition %q (body %s)",
					presp.StatusCode, presp.Header.Get(CacheHeader), got)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("async body differs from the synchronous body")
			}
			runs := simRuns(s)

			if hresp, hbody := postJSON(t, c, k.path, []byte(k.body)); hresp.Header.Get(CacheHeader) != "hit" || !bytes.Equal(hbody, want) {
				t.Fatalf("sync call after async: disposition %q, equal bytes %v",
					hresp.Header.Get(CacheHeader), bytes.Equal(hbody, want))
			}
			resp2, body2 := postAsync(t, c, k.path, []byte(k.explicit))
			if acceptedKey(t, resp2, body2) != acceptedKey(t, resp, body) || resp2.Header.Get(CacheHeader) != "hit" {
				t.Fatalf("async resubmit: body %s disposition %q, want the same key and hit",
					body2, resp2.Header.Get(CacheHeader))
			}
			if got := simRuns(s); got != runs {
				t.Fatalf("sim.runs = %d after the resubmits, want %d", got, runs)
			}
		})
	}
}

// TestAsyncBatchOverSharedKeys: 12 async submissions over 6 distinct keys
// all become readable, and the shared keys cost exactly 6 simulations —
// the rest are cache hits or joined an in-flight run.
func TestAsyncBatchOverSharedKeys(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	const n, keys = 12, 6
	locations := make([]string, n)
	for i := range locations {
		resp, body := postAsync(t, c, "/v1/run", []byte(fmt.Sprintf(`{"seed": %d, "duration": 5}`, 1+i%keys)))
		acceptedKey(t, resp, body)
		locations[i] = resp.Header.Get("Location")
	}
	bodies := map[string][]byte{}
	for i, loc := range locations {
		resp, body := pollResult(t, c, loc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: status %d (body %s)", i, resp.StatusCode, body)
		}
		if prev, ok := bodies[loc]; ok && !bytes.Equal(prev, body) {
			t.Fatalf("submission %d: one key answered two bodies", i)
		}
		bodies[loc] = body
	}
	if len(bodies) != keys {
		t.Fatalf("%d distinct keys, want %d", len(bodies), keys)
	}
	if got := simRuns(s); got != keys {
		t.Fatalf("sim.runs = %d, want %d", got, keys)
	}
}

// TestResultPoll: GET /v1/results/{key} answers 202 + Retry-After while
// the key's execution is queued behind a wedged worker and 200 once it
// finished, 404 for a key nothing produced, and 400 for a malformed key
// without reading either tier. A server that keeps no results answers an
// async submission synchronously.
func TestResultPoll(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 2, RetryAfter: 2 * time.Second, Store: st})
	c, _ := clientFor(t, s)

	running := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unwedge := func() { releaseOnce.Do(func() { close(release) }) }
	defer unwedge()
	if err := s.pool.TrySubmit(context.Background(), func(context.Context) { close(running); <-release }, nil); err != nil {
		t.Fatalf("wedge: %v", err)
	}
	<-running
	resp, body := postAsync(t, c, "/v1/run", []byte(`{"seed": 3, "duration": 5}`))
	key := acceptedKey(t, resp, body)
	presp, pbody := getPath(t, c, "/v1/results/"+key)
	if presp.StatusCode != http.StatusAccepted || presp.Header.Get("Retry-After") != "2" {
		t.Fatalf("poll in flight: status %d Retry-After %q (body %s), want 202 and 2",
			presp.StatusCode, presp.Header.Get("Retry-After"), pbody)
	}
	unwedge()
	if presp, pbody = pollResult(t, c, "/v1/results/"+key); presp.StatusCode != http.StatusOK {
		t.Fatalf("poll after release: status %d (body %s)", presp.StatusCode, pbody)
	}

	if resp, body := getPath(t, c, "/v1/results/"+strings.Repeat("0", 64)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d (body %s), want 404", resp.StatusCode, body)
	} else {
		errorEnvelope(t, body)
	}

	storeMisses := s.Registry().Counter("store.misses").Value()
	cacheMisses := s.Registry().Counter("service.cache.misses").Value()
	for _, bad := range []string{
		strings.ToUpper(key), key[:63], key + "0", strings.Repeat("g", 64), "..%2F" + key[5:],
	} {
		resp, body := getPath(t, c, "/v1/results/"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("key %q: status %d (body %s), want 400", bad, resp.StatusCode, body)
		}
		errorEnvelope(t, body)
	}
	if got := s.Registry().Counter("store.misses").Value(); got != storeMisses {
		t.Fatalf("malformed keys moved store.misses %d → %d", storeMisses, got)
	}
	if got := s.Registry().Counter("service.cache.misses").Value(); got != cacheMisses {
		t.Fatalf("malformed keys moved service.cache.misses %d → %d", cacheMisses, got)
	}

	// No cache and no store: nothing could be polled, so the preference
	// is ignored and the body comes back at once.
	_, c2 := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	resp, body = postAsync(t, c2, "/v1/run", []byte(`{"seed": 3, "duration": 5}`))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Preference-Applied") != "" {
		t.Fatalf("server without results: status %d Preference-Applied %q, want a plain 200",
			resp.StatusCode, resp.Header.Get("Preference-Applied"))
	}
}

// TestPrefersAsync: the preference is found in any Prefer header, any list
// entry, with parameters and in any case.
func TestPrefersAsync(t *testing.T) {
	for _, tc := range []struct {
		values []string
		want   bool
	}{
		{nil, false},
		{[]string{"respond-async"}, true},
		{[]string{"wait=10, Respond-Async"}, true},
		{[]string{"handling=lenient", "respond-async; foo=bar"}, true},
		{[]string{"return=minimal"}, false},
		{[]string{"respond-asynchronously"}, false},
	} {
		h := http.Header{}
		for _, v := range tc.values {
			h.Add("Prefer", v)
		}
		if got := prefersAsync(h); got != tc.want {
			t.Errorf("Prefer %q: %v, want %v", tc.values, got, tc.want)
		}
	}
}

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

// TestJobQueueFullSheds: an async submission passes the same admission
// queue as a synchronous one. With the worker wedged, one async submission
// takes the only queue slot and is answered 202 at once; a distinct one is
// shed with 429 + Retry-After; the accepted one becomes readable once the
// worker is released.
func TestJobQueueFullSheds(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})

			running := make(chan struct{})
			release := make(chan struct{})
			var releaseOnce sync.Once
			unwedge := func() { releaseOnce.Do(func() { close(release) }) }
			defer unwedge()
			if err := s.pool.TrySubmit(context.Background(), func(context.Context) { close(running); <-release }, nil); err != nil {
				t.Fatalf("wedge: %v", err)
			}
			<-running

			// The filler is a run with its own key, distinct from every
			// kind's body below, so the shed submission cannot join it.
			resp, body := postAsync(t, c, "/v1/run", []byte(`{"seed": 4242, "duration": 5}`))
			acceptedKey(t, resp, body)
			if got := s.pool.QueueLen(); got != 1 {
				t.Fatalf("queue length %d after the accepted submission, want 1", got)
			}
			sresp, sbody := postAsync(t, c, k.path, []byte(k.body))
			if sresp.StatusCode != http.StatusTooManyRequests || sresp.Header.Get("Retry-After") != "2" {
				t.Fatalf("status %d Retry-After %q, want 429 and 2 (body %s)",
					sresp.StatusCode, sresp.Header.Get("Retry-After"), sbody)
			}
			errorEnvelope(t, sbody)
			if got := s.Registry().Counter("service.queue_full").Value(); got != 1 {
				t.Fatalf("queue_full counter = %d, want 1", got)
			}

			unwedge()
			if presp, pbody := pollResult(t, c, resp.Header.Get("Location")); presp.StatusCode != http.StatusOK {
				t.Fatalf("accepted submission: status %d (body %s)", presp.StatusCode, pbody)
			}
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
// cancelled inside the step loop, answered with 504 and not kept.
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
			// Failures are not kept: an async submission of the same
			// request is accepted, and its key then answers 404.
			aresp, abody := postAsync(t, c, k.path, []byte(k.slow))
			acceptedKey(t, aresp, abody)
			if presp, pbody := pollResult(t, c, aresp.Header.Get("Location")); presp.StatusCode != http.StatusNotFound {
				t.Fatalf("poll of a timed-out execution: status %d (body %s), want 404", presp.StatusCode, pbody)
			}
		})
	}
}

// TestKeyedBadRequest: a malformed, over-specified or invalid document
// is a 400 with the JSON error envelope, answered before any simulation
// runs, whether it is submitted synchronously or asynchronously. Each kind's own test table covers its validation messages.
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
			for _, post := range []func(*testing.T, *Client, string, []byte) (*http.Response, []byte){postJSON, postAsync} {
				for _, tc := range cases {
					resp, body := post(t, c, k.path, []byte(tc.doc))
					if resp.StatusCode != http.StatusBadRequest {
						t.Fatalf("%s: status %d, want 400 (body %s)", tc.doc, resp.StatusCode, body)
					}
					if msg := errorEnvelope(t, body); !strings.HasPrefix(msg, tc.want) {
						t.Fatalf("%s: error %q, want prefix %q", tc.doc, msg, tc.want)
					}
				}
			}
			if got := s.Registry().Counter("service.bad_requests").Value(); got != 2*int64(len(cases)) {
				t.Fatalf("bad_requests counter = %d, want %d", got, 2*len(cases))
			}
			if got := simRuns(s); got != 0 {
				t.Fatalf("invalid requests triggered %d simulations", got)
			}
		})
	}
}
