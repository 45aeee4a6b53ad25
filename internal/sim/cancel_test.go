package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/track"
)

// cancelAfter is a context whose Err turns non-nil on its k-th call. The
// step loop checks Err once per control step, so the run is cancelled at
// exactly its k-th control step, with no timer involved.
type cancelAfter struct {
	context.Context
	k, calls int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelClosesSpans cancels a guarded step-spoof run at t = 10 s, while
// the attack lane, the guard's fallback lane and two violation episodes are
// open. The run must return a nil result and an error wrapping
// context.Canceled, close every span it opened at the cancel instant, and
// emit exactly the events of an uncancelled run up to that instant.
func TestCancelClosesSpans(t *testing.T) {
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attacks.Standard(attacks.ClassStepSpoof, attacks.Window{Start: 5, End: 25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) (*Result, []events.Event, error) {
		ev := events.NewRecorder(0).WithoutWallClock()
		res, err := Run(Config{
			Track: tr, Controller: "pure-pursuit", Seed: 3, Duration: 30, Campaign: camp,
			Monitor: core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true}),
			Guard:   GuardConfig{Enabled: true, AssertionTrigger: true},
			Events:  ev, Context: ctx,
		})
		return res, ev.Events(), err
	}
	_, full, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, cut, err := run(&cancelAfter{Context: context.Background(), k: 200})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled run returned (%v, %v), want a nil result and context.Canceled", res, err)
	}

	// Every Begin has its End, per track.
	open := map[string]int{}
	for _, e := range cut {
		switch e.Kind {
		case events.Begin:
			open[e.Track]++
		case events.End:
			if open[e.Track]--; open[e.Track] < 0 {
				t.Fatalf("End without Begin on %s at t=%g", e.Track, e.T)
			}
		}
	}
	for track, n := range open {
		if n != 0 {
			t.Errorf("%s: %d spans left open", track, n)
		}
	}

	// The events before the cancel instant are the uncancelled run's
	// prefix; the rest close the open spans at that instant.
	var at float64
	for _, e := range cut {
		if e.Kind == events.Instant && e.Name == "cancelled" {
			at = e.T
		}
	}
	if at != 10 {
		t.Fatalf("cancelled instant at t=%g, want 10", at)
	}
	n := 0
	for n < len(cut) && cut[n].T < at {
		n++
	}
	if n >= len(full) || !reflect.DeepEqual(cut[:n], full[:n]) || full[n].T < at {
		t.Fatalf("the %d events before the cut differ from the uncancelled run's prefix", n)
	}
	closed := map[string]bool{}
	for _, e := range cut[n:] {
		if e.T != at || e.Kind == events.Begin {
			t.Errorf("after the cut: %v %s %q at t=%g", e.Kind, e.Track, e.Name, e.T)
		}
		if e.Kind == events.End {
			closed[e.Track] = true
		}
	}
	for _, track := range []string{"attack", "guard", "assertion/A1", "assertion/A5", "scenario"} {
		if !closed[track] {
			t.Errorf("the cut did not close an open %s span", track)
		}
	}
}
