package main

import (
	"reflect"
	"testing"

	"adassure/internal/telemetry"
)

// TestInputsFollowSeed pins that the seed alone fixes every workload's
// inputs, the open-loop request sequences included, and that another seed
// draws other inputs.
func TestInputsFollowSeed(t *testing.T) {
	draw := func(seed int64) []any {
		set, seq := hotRequests(seed, 300)
		return []any{sweepGrid(seed), set, seq, coldRequests(seed, 300)}
	}
	for _, seed := range []int64{1, 2, 1 << 40} {
		if !reflect.DeepEqual(draw(seed), draw(seed)) {
			t.Errorf("seed %d drew different inputs twice", seed)
		}
	}
	a, b := draw(1), draw(2)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same for seeds 1 and 2", i)
		}
	}
}

// TestSweepChunks checks the sweep grid's layout: it covers every track ×
// controller × attack class once, and every chunk runs every track ×
// controller pair once.
func TestSweepChunks(t *testing.T) {
	grid := sweepGrid(5)
	if want := chunkSize * len(attackClasses()); len(grid) != want {
		t.Fatalf("%d scenarios, want %d", len(grid), want)
	}
	cells := map[string]bool{}
	for lo := 0; lo < len(grid); lo += chunkSize {
		pairs := map[string]bool{}
		for _, s := range grid[lo : lo+chunkSize] {
			pairs[string(s.Track)+"/"+string(s.Controller)] = true
			cells[string(s.Track)+"/"+string(s.Controller)+"/"+string(s.Attack)] = true
		}
		if len(pairs) != chunkSize {
			t.Errorf("chunk at %d runs %d track × controller pairs, want %d", lo, len(pairs), chunkSize)
		}
	}
	if len(cells) != len(grid) {
		t.Errorf("grid covers %d track × controller × attack cells, want %d", len(cells), len(grid))
	}
}

// TestColdMix checks serve-cold's sequence: mostly fresh keys, with
// repeats of both recent and long-past keys.
func TestColdMix(t *testing.T) {
	keys, err := keysOf(coldRequests(3, 2000))
	if err != nil {
		t.Fatal(err)
	}
	freshBefore := map[string]int{} // key → fresh keys drawn before it
	var fresh, recent, old int
	for _, k := range keys {
		age, seen := freshBefore[k]
		switch {
		case !seen:
			freshBefore[k] = fresh
			fresh++
		case fresh-age <= coldRecent:
			recent++
		case fresh-age > coldOld:
			old++
		}
	}
	if n := len(keys); fresh < n*6/10 || recent < n/10 || old < n/10 {
		t.Errorf("%d requests: %d fresh, %d recent repeats, %d old repeats", n, fresh, recent, old)
	}
}

// TestExclusive checks the span partition behind the service ledger:
// overlapping children split their overlap, and time no child covers is
// the root's own.
func TestExclusive(t *testing.T) {
	span := func(name string, start, end int64) telemetry.SpanExport {
		return telemetry.SpanExport{Name: name, StartUnixNS: start, EndUnixNS: end, DurationNS: end - start}
	}
	self, own := exclusive(span("http /v1/run", 0, 100), []telemetry.SpanExport{
		span("cache.lookup", 10, 30), span("queue.wait", 25, 50), span("execute", 50, 90),
	})
	want := map[string]int64{"cache.lookup": 15, "queue.wait": 25, "execute": 40}
	if self != 20 || !reflect.DeepEqual(own, want) {
		t.Errorf("self %d, own %v; want 20, %v", self, own, want)
	}
}
