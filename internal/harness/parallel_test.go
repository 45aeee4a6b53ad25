package harness

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// render regenerates one experiment under o and returns the rendered
// bytes.
func render(t *testing.T, id string, o Options) []byte {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", id, o.Workers, err)
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelDeterminism is the core guarantee of the runner rewiring:
// the rendered output of every parallelised experiment is byte-identical
// for workers=1, workers=4 and workers=GOMAXPROCS, and with a metrics
// registry, an event recorder and a bundle directory attached (observers
// never feed back into a table). Every grid experiment lowers its cells
// through the one run function; T1 covers a class grid, F5 the catalog
// ablation, X1 the guard variants, X2 the sized attacks, X5 the
// localizers, and S1 the adversarial-search frontier (sequential descent
// inside each track × channel pair, pairs fanned across the pool).
func TestParallelDeterminism(t *testing.T) {
	workers := func(n int) Options {
		o := quick()
		o.Workers = n
		return o
	}
	for _, id := range []string{"T1", "F5", "X1", "X2", "X5", "S1"} {
		want := render(t, id, workers(1))
		observed := workers(4)
		observed.Obs = obs.NewRegistry()
		observed.Events = events.NewRecorder(0)
		observed.BundleDir = t.TempDir()
		for _, mode := range []struct {
			name string
			o    Options
		}{
			{"workers=4", workers(4)},
			{"workers=GOMAXPROCS", workers(runtime.GOMAXPROCS(0))},
			{"workers=4 with Obs, Events and BundleDir", observed},
		} {
			if got := render(t, id, mode.o); !bytes.Equal(got, want) {
				t.Errorf("%s: %s output differs from workers=1:\n--- workers=1\n%s\n--- %s\n%s",
					id, mode.name, want, mode.name, got)
			}
		}
	}
}

// TestParallelProgress checks a parallel grid runs to completion: every
// job of T1 quick (12 classes × 1 seed) is counted by the pool.
func TestParallelProgress(t *testing.T) {
	o := quick()
	o.Workers = 4
	o.Obs = obs.NewRegistry()
	if _, err := Table1DetectionMatrix(o); err != nil {
		t.Fatal(err)
	}
	if got := o.Obs.Counter("runner.jobs_completed").Value(); got != 12 {
		t.Errorf("runner.jobs_completed = %d, want 12 (classes × seeds)", got)
	}
}

// TestCellIdentity: every cell of a grid owns its event lanes and its
// bundle files, so each piece of evidence traces back to the one run that
// produced it. X1 runs each attack under five guard configurations that
// differ only in their guard fields, four of them guarded.
func TestCellIdentity(t *testing.T) {
	o := quick()
	o.Workers = 4
	o.Events = events.NewRecorder(0)
	o.BundleDir = t.TempDir()
	if _, err := ExtensionX1GuardAblation(o); err != nil {
		t.Fatal(err)
	}
	type span struct{ begins, ends int }
	spans := map[string]span{} // by scenario track
	episodes := 0
	for _, e := range o.Events.Events() {
		switch {
		case e.Cat == events.CatViolation && e.Kind == events.Begin:
			episodes++
		case e.Cat == events.CatScenario && strings.HasSuffix(e.Track, "/scenario"):
			sp := spans[e.Track]
			switch e.Kind {
			case events.Begin:
				sp.begins++
			case events.End:
				sp.ends++
			}
			spans[e.Track] = sp
		}
	}
	if len(spans) != 10 {
		t.Errorf("%d scenario lanes, want 10 (5 guard configurations × 2 attacks)", len(spans))
	}
	for track, sp := range spans {
		if sp != (span{1, 1}) {
			t.Errorf("%s: %d begins and %d ends, want one of each", track, sp.begins, sp.ends)
		}
	}
	files, err := os.ReadDir(o.BundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != episodes {
		t.Errorf("%d bundle files for %d violation episodes: a bundle path was written twice", len(files), episodes)
	}
}
