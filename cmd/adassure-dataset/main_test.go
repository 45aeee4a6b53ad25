package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// TestDatasetDeterministicAcrossWorkers: the CSV on stdout — and the
// post-collection stderr progress log — must be byte-identical whether
// the grid runs sequentially or fanned across the pool.
func TestDatasetDeterministicAcrossWorkers(t *testing.T) {
	gen := func(workers int) (string, string) {
		var out, errb bytes.Buffer
		argv := []string{"-seeds", "1", "-duration", "10", "-workers", fmt.Sprint(workers)}
		if err := run(argv, &out, &errb); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out.String(), errb.String()
	}
	csv1, log1 := gen(1)
	csv4, log4 := gen(4)
	if csv1 != csv4 {
		t.Fatalf("CSV differs between workers=1 (%d bytes) and workers=4 (%d bytes)", len(csv1), len(csv4))
	}
	if log1 != log4 {
		t.Fatalf("stderr progress log differs between worker counts:\n--- 1\n%s\n--- 4\n%s", log1, log4)
	}
	lines := strings.Split(strings.TrimSpace(csv1), "\n")
	if len(lines) < 2 {
		t.Fatalf("corpus has %d lines, want header plus at least one row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "label,") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}

// TestDatasetObservabilityOutputs: -metrics writes an exposition whose
// sim_runs_total counts every run, -events a parseable event log that
// links every corpus row back to its evidence: one scenario lane per run,
// and each run's violation episodes on that run's lanes, as many as its
// row counts.
func TestDatasetObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	eventsPath := filepath.Join(dir, "events.json")
	var out, errb bytes.Buffer
	argv := []string{
		"-seeds", "1", "-duration", "15", "-onset", "10", "-end", "14", "-workers", "2",
		"-metrics", metrics, "-events", eventsPath,
	}
	if err := run(argv, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "metrics written to") {
		t.Fatalf("stderr missing metrics confirmation:\n%s", errb.String())
	}

	// Run i's row reports n violations on stderr; its lanes are "s<i>/...".
	var want []int
	for _, line := range strings.Split(errb.String(), "\n") {
		var class string
		var seed, n int
		if _, err := fmt.Sscanf(line, "ran %s seed %d (%d violations)", &class, &seed, &n); err == nil {
			want = append(want, n)
		}
	}
	if len(want) != 13 {
		t.Fatalf("stderr reports %d runs, want 13:\n%s", len(want), errb.String())
	}
	mf, err := os.Open(metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	doc, err := obs.ParseProm(mf)
	if err != nil {
		t.Fatalf("%s is not a valid exposition: %v", metrics, err)
	}
	if got, n := doc.Sum("sim_runs_total"); n != 1 || got != float64(len(want)) {
		t.Fatalf("sim_runs_total = %v over %d series, want %d", got, n, len(want))
	}
	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg, err := events.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	scenarioLanes := map[string]bool{}
	episodes := map[string]int{}
	for _, e := range lg.Events {
		scope, _, _ := strings.Cut(e.Track, "/")
		switch {
		case e.Cat == events.CatScenario && strings.HasSuffix(e.Track, "/scenario"):
			scenarioLanes[scope] = true
		case e.Cat == events.CatViolation && e.Kind == events.Begin:
			episodes[scope]++
		}
	}
	if len(scenarioLanes) != len(want) {
		t.Fatalf("event log has %d scenario lanes, want one per run (%d)", len(scenarioLanes), len(want))
	}
	total := 0
	for i, n := range want {
		scope := fmt.Sprintf("s%d", i)
		if !scenarioLanes[scope] {
			t.Fatalf("run %d has no %s/scenario lane", i, scope)
		}
		if episodes[scope] != n {
			t.Fatalf("run %d: %d violation episodes on %s/ lanes, its row reports %d", i, episodes[scope], scope, n)
		}
		total += n
	}
	if total == 0 || len(episodes) > len(want) {
		t.Fatalf("violation episodes %v: want some, all on run lanes", episodes)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
