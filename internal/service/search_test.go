package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"adassure/internal/mutate"
	"adassure/internal/search"
)

// smallSearch is the cheap /v1/search request of the tests: one channel on
// one short route with a tiny descent budget.
func smallSearch() SearchRequest {
	return SearchRequest{
		Tracks:   []string{"urban-loop"},
		Channels: []search.Spec{{Op: mutate.OpGNSSQuantize, Min: 0.05, Max: 2.5}},
		Budget:   4,
		Duration: 15,
	}
}

// TestSearchEndToEnd runs a small campaign through the service: the
// response is an evasion-frontier report with one point per track ×
// channel, and it cost one baseline plus one simulation per probe.
func TestSearchEndToEnd(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	reqBody, err := json.Marshal(smallSearch())
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, c, "/v1/search", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(CacheHeader); got != "miss" {
		t.Fatalf("cache disposition %q, want miss", got)
	}
	rep, err := search.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not a frontier report: %v", err)
	}
	if len(rep.Frontier) != 1 {
		t.Fatalf("frontier has %d points, want 1 (one track × one channel): %+v", len(rep.Frontier), rep.Frontier)
	}
	if p := rep.Frontier[0]; p.Evals == 0 || p.Evals > 4 {
		t.Fatalf("frontier point spent %d evals, want within (0, 4]", p.Evals)
	}
	// 1 baseline + TotalEvals probes.
	if runs, want := s.Registry().Counter("sim.runs").Value(), int64(1+rep.TotalEvals); runs != want {
		t.Fatalf("sim.runs = %d, want %d (baseline + probes)", runs, want)
	}
}

// TestSearchBadRequests: malformed documents and invalid search parameters
// are 400s with the JSON error envelope, before any simulation runs.
func TestSearchBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"unknown channel", `{"channels": [{"op": "ctrl-teleport"}]}`, "unsearchable channel"},
		{"parameterless channel", `{"channels": [{"op": "identity"}]}`, "unsearchable channel"},
		{"inverted range", `{"channels": [{"op": "sense-gnss-quantize", "min": 2, "max": 1}]}`, "inverted magnitude range"},
		{"out-of-range magnitude", `{"channels": [{"op": "sense-gnss-quantize", "min": 1, "max": 5000}]}`, "outside operator bounds"},
		{"inverted window", `{"channels": [{"op": "sense-gnss-latency", "window": {"start": 30, "end": 10}}]}`, "inverted window"},
		{"window on controller", `{"channels": [{"op": "ctrl-frozen-input", "window": {"start": 1, "end": 2}}]}`, "window unsupported"},
		{"duplicate channels", `{"channels": [{"op": "sense-gnss-latency"}, {"op": "sense-gnss-latency"}]}`, "duplicate"},
		{"unknown track", `{"tracks": ["moebius-strip"]}`, "unknown track"},
		{"unknown controller", `{"controller": "yolo"}`, "unknown controller"},
		{"unknown mode", `{"mode": "anneal"}`, "unknown mode"},
		{"negative duration", `{"duration": -3}`, "duration"},
		{"over duration cap", `{"duration": 1e9}`, "exceeds the server cap"},
		{"negative budget", `{"budget": -1}`, "budget"},
		{"over eval cap", `{"budget": 32}`, "exceeds the cap"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, c, "/v1/search", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
		if msg := errorEnvelope(t, body); !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, msg, tc.want)
		}
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 0 {
		t.Fatalf("invalid search requests triggered %d simulations", got)
	}
}
