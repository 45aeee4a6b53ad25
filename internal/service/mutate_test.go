package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"adassure/internal/mutate"
)

// smallCampaign is the cheap /v1/mutate request of the tests: 3 mutants +
// 1 baseline on one short route = 4 simulations.
func smallCampaign() MutateRequest {
	return MutateRequest{
		Tracks: []string{"urban-loop"},
		Mutants: []mutate.Spec{
			{Op: mutate.OpIdentity},
			{Op: mutate.OpGainFlip},
			{Op: mutate.OpGNSSDropout, Param: 5},
		},
		Duration: 20,
	}
}

// errorEnvelope decodes the uniform JSON error body and returns its
// message, failing the test when the body is not the envelope.
func errorEnvelope(t *testing.T, body []byte) string {
	t.Helper()
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v (body %q)", err, body)
	}
	if env["error"] == "" {
		t.Fatalf("error envelope has no error message: %q", body)
	}
	return env["error"]
}

// TestMutateEndToEnd runs a small campaign through the service: the
// response is a kill-matrix report (gain-flip killed, identity survived)
// that cost exactly one simulation per grid cell.
func TestMutateEndToEnd(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	reqBody, err := json.Marshal(smallCampaign())
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, c, "/v1/mutate", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("cache disposition %q, want miss", got)
	}
	rep, err := mutate.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a campaign report: %v", err)
	}
	if sc, ok := rep.Score("ctrl-gain-flip"); !ok || !sc.Killed {
		t.Fatalf("gain-flip not killed in service campaign: %+v", sc)
	}
	if sc, _ := rep.Score("identity"); sc.Killed {
		t.Fatalf("identity killed in service campaign: %+v", sc)
	}

	// 3 mutants + 1 baseline on 1 track = 4 simulations.
	if got := s.Registry().Counter("sim.runs").Value(); got != 4 {
		t.Fatalf("sim.runs = %d, want 4", got)
	}
}

// TestMutateConcurrentCacheHit: K identical concurrent campaign requests
// from a cold cache cost exactly one campaign's worth of simulations —
// everyone else is coalesced onto the leader's flight call or served from
// the cache the leader filled.
func TestMutateConcurrentCacheHit(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	reqBody, err := json.Marshal(smallCampaign())
	if err != nil {
		t.Fatal(err)
	}

	const K = 6
	bodies := make([][]byte, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, c, "/v1/mutate", reqBody)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d, body %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < K; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d received different bytes", i)
		}
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 4 {
		t.Fatalf("sim.runs = %d, want exactly 4 (one campaign) for %d concurrent requests", got, K)
	}
}

// TestMutateBadRequests: malformed documents and invalid campaign
// parameters are 400s with the JSON error envelope, before any simulation
// runs.
func TestMutateBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"unknown mutant op", `{"mutants": [{"op": "ctrl-teleport"}]}`, "unknown operator"},
		{"bad mutant param", `{"mutants": [{"op": "ctrl-gain-scale", "param": -3}]}`, "outside"},
		{"duplicate mutants", `{"mutants": [{"op": "ctrl-gain-flip"}, {"op": "ctrl-gain-flip"}]}`, "duplicate"},
		{"unknown track", `{"tracks": ["moebius-strip"]}`, "unknown track"},
		{"unknown controller", `{"controller": "yolo"}`, "unknown controller"},
		{"negative duration", `{"duration": -3}`, "duration"},
		{"over duration cap", `{"duration": 1e9}`, "exceeds the server cap"},
		{"oversized grid", `{"tracks": ["urban-loop", "hairpin", "circle", "straight", "s-curve"]}`, "exceeds the cap"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, c, "/v1/mutate", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
		if msg := errorEnvelope(t, body); !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, msg, tc.want)
		}
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 0 {
		t.Fatalf("invalid campaign requests triggered %d simulations", got)
	}
}

// TestUnknownRouteAndMethod: the JSON fallback answers unknown paths with
// a 404 envelope and wrong-method calls on real routes with 405 + Allow,
// instead of the mux's plain-text defaults.
func TestUnknownRouteAndMethod(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	hc := c.httpClient()

	resp, err := hc.Get(c.BaseURL + "/v1/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("unknown route: content type %q, want application/json", ct)
	}
	if msg := errorEnvelope(t, buf.Bytes()); !strings.Contains(msg, "unknown route") {
		t.Fatalf("404 message %q does not name the problem", msg)
	}

	for path, wrong := range map[string]string{
		"/v1/run":     http.MethodGet,
		"/v1/mutate":  http.MethodGet,
		"/v1/catalog": http.MethodPost,
		"/healthz":    http.MethodDelete,
	} {
		req, err := http.NewRequest(wrong, c.BaseURL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", wrong, path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Fatalf("%s %s: 405 without an Allow header", wrong, path)
		}
		errorEnvelope(t, buf.Bytes())
	}
}
