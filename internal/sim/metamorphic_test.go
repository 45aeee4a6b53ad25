package sim

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
	"adassure/internal/events"
	"adassure/internal/track"
	"adassure/internal/vehicle"
)

// sameFrame compares two frames field by field, treating NaN as equal to
// NaN: a frame is a flat struct of scalars, so == is exact bitwise equality
// except for NaN, which %v renders identically.
func sameFrame(a, b core.Frame) bool {
	return a == b || fmt.Sprint(a) == fmt.Sprint(b)
}

// TestPrefixIdentity: an attack cannot act before its onset, so every frame
// an attacked run records before the onset equals the clean run's frame at
// the same step. Checked for seed 7 on every built-in track × lateral
// controller × standard attack class.
func TestPrefixIdentity(t *testing.T) {
	const onset, duration = 20.0, 20.5
	cat, err := track.Catalog(5)
	if err != nil {
		t.Fatal(err)
	}
	var controllers []string
	for _, c := range control.All(vehicle.ShuttleParams()) {
		controllers = append(controllers, c.Name())
	}
	for _, name := range track.Names(cat) {
		tr := cat[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, ctrl := range controllers {
				run := func(camp attacks.Campaign) []core.Frame {
					res, err := Run(Config{
						Track: tr, Controller: ctrl, Seed: 7, Duration: duration,
						Campaign: camp, RecordFrames: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res.Frames
				}
				clean := run(attacks.Campaign{})
				prefix := 0
				for prefix < len(clean) && clean[prefix].T < onset {
					prefix++
				}
				if prefix == 0 || prefix == len(clean) {
					t.Fatalf("%s: %d of %d clean frames before the onset", ctrl, prefix, len(clean))
				}
				for _, class := range attacks.StandardClasses() {
					camp, err := attacks.Standard(class, attacks.Window{Start: onset, End: onset + 30}, 7)
					if err != nil {
						t.Fatal(err)
					}
					attacked := run(camp)
					if len(attacked) < prefix {
						t.Errorf("%s/%s: %d frames, clean run has %d before the onset", ctrl, class, len(attacked), prefix)
						continue
					}
					for i := 0; i < prefix; i++ {
						if !sameFrame(clean[i], attacked[i]) {
							t.Errorf("%s/%s: frame at t=%.2f differs from the clean run before the %g s onset",
								ctrl, class, clean[i].T, onset)
							break
						}
					}
				}
			}
		})
	}
}

// renderResult serialises everything a run produces, the recorded frames
// (which the signal trace is projected from), violations with evidence,
// summary figures and final state, in %+v form, which prints floats
// exactly.
func renderResult(t *testing.T, res *Result) []byte {
	t.Helper()
	if res.Frames == nil {
		t.Fatal("run recorded no frames: set RecordFrames")
	}
	return fmt.Appendf(nil, "%+v\n", *res)
}

// TestAttackWindowPastEnd: an attack whose window opens after the run ends
// never acts, so the run is byte-identical to the clean run — frames,
// violations and summary — with the guard and its assertion trigger
// engaged.
func TestAttackWindowPastEnd(t *testing.T) {
	const duration = 30.0
	run := func(camp attacks.Campaign) []byte {
		res, err := Run(Config{
			Track: urban(t), Controller: "pure-pursuit", Seed: 7, Duration: duration,
			Campaign: camp, RecordFrames: true, Monitor: monitor(),
			Guard: GuardConfig{Enabled: true, AssertionTrigger: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return renderResult(t, res)
	}
	clean := run(attacks.Campaign{})
	for _, class := range attacks.StandardClasses() {
		camp, err := attacks.Standard(class, attacks.Window{Start: duration + 1, End: duration + 20}, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(camp); !bytes.Equal(got, clean) {
			t.Errorf("%s: window past the end changed the run", class)
		}
	}
}

// TestTraceRecordingInert: recording frames never feeds back into a run,
// so a RecordFrames run and a default one give the same frames, violations
// and summary. A run that records no frames still hands each one to its
// monitor, where an extra assertion that never fails keeps a copy; in a
// recording run that copy equals the recorded frames. Checked on every
// built-in track under a guarded drift spoof, so the guard's fallback
// runs too.
func TestTraceRecordingInert(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := attacks.Standard(attacks.ClassDriftSpoof, attacks.Window{Start: 5, End: 25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range track.Names(cat) {
		render := func(record bool) string {
			var seen []core.Frame
			keep := core.NewAssertion("keep", "keep-frames", "copies every frame", core.Info,
				func(f *core.Frame, o *core.Outcome) {
					seen = append(seen, *f)
					o.Set(true, 0)
				}, nil)
			res, err := Run(Config{
				Track: cat[name], Controller: "pure-pursuit", Seed: 4, Duration: 30,
				Campaign: camp, Monitor: monitor().Add(keep, core.Debounce{K: 1, N: 1}), RecordFrames: record,
				Guard: GuardConfig{Enabled: true, AssertionTrigger: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if (res.Frames != nil) != record {
				t.Fatalf("%s: RecordFrames=%v gave frames %v", name, record, res.Frames != nil)
			}
			if len(seen) != res.Steps {
				t.Fatalf("%s: the monitor saw %d frames in %d steps", name, len(seen), res.Steps)
			}
			if record && !slices.EqualFunc(res.Frames, seen, sameFrame) {
				t.Fatalf("%s: the recorded frames differ from the monitor's", name)
			}
			res.Frames = nil
			return fmt.Sprintf("%+v %+v", seen, *res)
		}
		if render(true) != render(false) {
			t.Errorf("%s: recording the frames changed the run", name)
		}
	}
}

// TestUnguardedRunSkipsReckoner: only the guard reads the dead reckoner
// (fallback is entered under Guard.Enabled alone), so an unguarded run
// that steps it anyway is byte-identical to one that does not: frames,
// violations and summary. Checked on every built-in track under a
// clean run and a GNSS step spoof.
func TestUnguardedRunSkipsReckoner(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	spoof, err := attacks.Standard(attacks.ClassStepSpoof, attacks.Window{Start: 5, End: 15}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range track.Names(cat) {
		for _, camp := range []attacks.Campaign{{}, spoof} {
			render := func(reckon bool) []byte {
				cfg := Config{Track: cat[name], Controller: "stanley", Seed: 3, Duration: 20,
					Campaign: camp, Monitor: monitor(), RecordFrames: true}
				r, err := newRun(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.reckon {
					t.Fatal("an unguarded run steps the dead reckoner")
				}
				r.reckon = reckon
				for r.n < r.nSteps && !r.step() {
				}
				res, err := r.finish()
				if err != nil {
					t.Fatal(err)
				}
				return renderResult(t, res)
			}
			if !bytes.Equal(render(false), render(true)) {
				t.Errorf("%s/%s: stepping the dead reckoner changed an unguarded run", name, camp.Name())
			}
		}
	}
}

// TestFallbackFramesMatchGuardLane: a frame's Fallback bit is the guard's
// state, the same state FallbackTime sums and the guard lane of the event
// log draws. Under a GNSS dropout (the staleness trigger) and a step spoof
// (the χ² gate), each of which engages the guard by construction, the
// frames with Fallback set number FallbackTime/controlDT, and each run of
// them opens at a guard-lane Begin and closes at its End: at the first
// frame after the run, or at the end of the run. Checked on every built-in
// track.
func TestFallbackFramesMatchGuardLane(t *testing.T) {
	cat, err := track.Catalog(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []attacks.Class{attacks.ClassDropout, attacks.ClassStepSpoof} {
		camp, err := attacks.Standard(class, attacks.Window{Start: 10, End: 25}, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range track.Names(cat) {
			rec := events.NewRecorder(0).WithoutWallClock()
			res, err := Run(Config{
				Track: cat[name], Controller: "pure-pursuit", Seed: 5, Duration: 30,
				Campaign: camp, Monitor: monitor(), RecordFrames: true, Events: rec,
				Guard: GuardConfig{Enabled: true, AssertionTrigger: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			var runs [][2]float64 // [first fallback frame, first frame after the run]
			for i, f := range res.Frames {
				switch {
				case f.Fallback && (i == 0 || !res.Frames[i-1].Fallback):
					runs = append(runs, [2]float64{f.T, res.SimTime})
				case !f.Fallback && i > 0 && res.Frames[i-1].Fallback:
					runs[len(runs)-1][1] = f.T
				}
				if f.Fallback {
					n++
				}
			}
			if n == 0 {
				t.Errorf("%s/%s: the guard never fell back", class, name)
				continue
			}
			if want := int(math.Round(res.FallbackTime / controlDT)); n != want {
				t.Errorf("%s/%s: %d frames in fallback, FallbackTime %.2f s is %d steps", class, name, n, res.FallbackTime, want)
			}
			var lane [][2]float64
			for _, e := range rec.Events() {
				switch {
				case e.Cat != events.CatGuard:
				case e.Kind == events.Begin:
					lane = append(lane, [2]float64{e.T, math.NaN()})
				case e.Kind == events.End:
					lane[len(lane)-1][1] = e.T
				}
			}
			if !slices.Equal(runs, lane) {
				t.Errorf("%s/%s: fallback frames span %v, the guard lane %v", class, name, runs, lane)
			}
		}
	}
}
