package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adassure/internal/obs"
	"adassure/internal/store"
)

// restartableServer opens a store in dir and serves with it; closing the
// returned cleanup simulates a process restart (the next open replays
// the same segments).
func serverWithStore(t *testing.T, dir string) (*Server, *Client, func()) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{Obs: reg})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := New(Config{Workers: 1, Store: st, Obs: reg})
	c, stop := clientFor(t, s)
	return s, c, stop
}

// clientFor serves s over httptest and returns a client plus a stopper
// that shuts both down (unlike newTestServer's t.Cleanup, callable
// mid-test to model a restart).
func clientFor(t *testing.T, s *Server) (*Client, func()) {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	t.Cleanup(stop)
	return NewClient(hs.URL), stop
}

// TestStoreTierServesAcrossRestart: evidence computed before a restart
// is served from the persistent store afterwards — byte-identical, with
// the "store" disposition, no re-execution, and promoted back into the
// LRU so the next request is a plain hit; an async submission's key
// answers its poll from the store the same way. Every keyed kind
// persists: the store sits on the one pipeline they share.
func TestStoreTierServesAcrossRestart(t *testing.T) {
	for _, k := range keyedKinds {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			doc := []byte(k.body)
			if k.name == "run" {
				// An attacked run: its body carries violations and
				// diagnosis hypotheses, not just a clean summary.
				var err error
				if doc, err = json.Marshal(spoofRequest()); err != nil {
					t.Fatal(err)
				}
			}

			s1, c1, stop1 := serverWithStore(t, dir)
			resp1, body1 := postJSON(t, c1, k.path, doc)
			if resp1.StatusCode != http.StatusOK || resp1.Header.Get(CacheHeader) != "miss" {
				t.Fatalf("first call: status %d disposition %q (body %s)",
					resp1.StatusCode, resp1.Header.Get(CacheHeader), body1)
			}
			if got := s1.Registry().Counter("store.puts").Value(); got != 1 {
				t.Fatalf("store.puts = %d, want 1", got)
			}
			stop1() // "restart": the LRU dies with the process, the segments stay

			s2, c2, _ := serverWithStore(t, dir)
			resp2, body2 := postJSON(t, c2, k.path, doc)
			if got := resp2.Header.Get(CacheHeader); got != "store" {
				t.Fatalf("post-restart disposition %q, want store (status %d)", got, resp2.StatusCode)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatal("store served different bytes than the original execution")
			}
			if got := simRuns(s2); got != 0 {
				t.Fatalf("sim.runs after restart = %d, want 0 (store must not re-execute)", got)
			}

			// The store read promoted the entry into the LRU.
			resp3, _ := postJSON(t, c2, k.path, doc)
			if got := resp3.Header.Get(CacheHeader); got != "hit" {
				t.Fatalf("post-promotion disposition %q, want hit", got)
			}
		})
		// The content key is the async handle, so a result submitted
		// asynchronously is still pollable after the restart.
		t.Run(k.name+"-async", func(t *testing.T) {
			dir := t.TempDir()
			_, c1, stop1 := serverWithStore(t, dir)
			resp1, body1 := postAsync(t, c1, k.path, []byte(k.body))
			acceptedKey(t, resp1, body1)
			location := resp1.Header.Get("Location")
			presp, want := pollResult(t, c1, location)
			if presp.StatusCode != http.StatusOK {
				t.Fatalf("poll before restart: status %d (body %s)", presp.StatusCode, want)
			}
			stop1()

			s2, c2, _ := serverWithStore(t, dir)
			resp2, body2 := getPath(t, c2, location)
			if resp2.StatusCode != http.StatusOK || resp2.Header.Get(CacheHeader) != "store" {
				t.Fatalf("poll after restart: status %d disposition %q (body %s), want 200 store",
					resp2.StatusCode, resp2.Header.Get(CacheHeader), body2)
			}
			if !bytes.Equal(body2, want) {
				t.Fatal("store served different bytes than the async execution")
			}
			if got := simRuns(s2); got != 0 {
				t.Fatalf("sim.runs after restart = %d, want 0", got)
			}
		})
	}
}

// TestStoreTierDisabledCacheStillPersists: with the LRU disabled
// (negative cap) the store alone serves repeats without re-simulating —
// the tiers are independent.
func TestStoreTierDisabledCacheStillPersists(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := New(Config{Workers: 1, CacheBytes: -1, Store: st})
	c, _ := clientFor(t, s)
	ctx := context.Background()

	_, info1, err := c.Run(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if info1.Cache != "miss" {
		t.Fatalf("first disposition %q", info1.Cache)
	}
	_, info2, err := c.Run(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if info2.Cache != "store" {
		t.Fatalf("second disposition %q, want store (LRU is off)", info2.Cache)
	}
	if !bytes.Equal(info1.Body, info2.Body) {
		t.Fatal("store bytes differ from fresh bytes")
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 1 {
		t.Fatalf("sim.runs = %d, want 1", got)
	}
}
