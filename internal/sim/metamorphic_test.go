package sim

import (
	"bytes"
	"fmt"
	"testing"

	"adassure/internal/attacks"
	"adassure/internal/control"
	"adassure/internal/core"
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
						Campaign: camp, RecordFrames: true, DisableTrace: true,
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

// renderResult serialises everything a run produces: the trace as CSV and
// every other Result field (frames, violations with evidence, summary
// figures, final state) in %+v form, which prints floats exactly.
func renderResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Trace.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rest := *res
	rest.Trace = nil
	fmt.Fprintf(&b, "%+v\n", rest)
	return b.Bytes()
}

// TestAttackWindowPastEnd: an attack whose window opens after the run ends
// never acts, so the run is byte-identical to the clean run — trace,
// frames, violations and summary — with the guard and its assertion
// trigger engaged.
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
