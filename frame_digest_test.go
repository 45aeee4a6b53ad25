package adassure

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"adassure/internal/events"
)

var updateFrameDigest = flag.Bool("update-frame-digest", false,
	"rewrite testdata/frame_digest.txt and testdata/trace_event_digest.txt")

// frameDigestGrid is every built-in track × controller × attack class (none
// included), 364 cells of 30 s each. The guard alternates over the grid as
// in perfbench's sweep; cell i runs seed i+1.
func frameDigestGrid() []Scenario {
	tracks := []TrackName{TrackStraight, TrackCircle, TrackSCurve, TrackFigureEight,
		TrackDoubleLaneChange, TrackUrbanLoop, TrackHairpin}
	controllers := []ControllerName{ControllerPurePursuit, ControllerStanley, ControllerPIDLateral, ControllerLQRMPC}
	classes := append([]AttackName{AttackNone}, AttackNames()...)
	var grid []Scenario
	for ti, tr := range tracks {
		for ci, ctl := range controllers {
			for ai, at := range classes {
				grid = append(grid, Scenario{
					Track: tr, Controller: ctl, Attack: at, Guarded: (ti+ci+ai)%2 == 1,
					Seed: int64(len(grid) + 1), Duration: 30, RecordFrames: true,
				})
			}
		}
	}
	return grid
}

// digestWriter feeds values to a hash in a fixed binary form: floats by
// their IEEE-754 bits, so a digest tells apart values that print alike.
type digestWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *digestWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

// value hashes the scalar fields of a struct, recursively, in declaration
// order; fields of other kinds (slices, pointers) are skipped.
func (w *digestWriter) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		w.u64(math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			w.u64(1)
		} else {
			w.u64(0)
		}
	case reflect.Int, reflect.Int64:
		w.u64(uint64(v.Int()))
	case reflect.String:
		w.str(v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.value(v.Field(i))
		}
	}
}

// TestFrameDigest runs the 364-cell grid and hashes, per cell, every
// recorded frame, every violation (evidence included) and the run's
// summary into one SHA-256 line, which must equal the committed one: any
// change to a bit the simulator, the fusion filter or the monitor produces
// shows here, named by the cells it moved. The grid records no trace;
// TestTraceEventDigest records it over the same grid. Regenerate with
// -update-frame-digest after an intended change. The race detector makes
// the grid too slow to run, so -race skips it.
func TestFrameDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("the 364-run grid is too slow under the race detector")
	}
	grid := frameDigestGrid()
	res, err := RunScenarios(context.Background(), grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][]byte, len(res))
	for i, r := range res {
		w := &digestWriter{h: sha256.New()}
		w.u64(uint64(len(r.Recording.Frames)))
		for i := range r.Recording.Frames {
			w.value(reflect.ValueOf(&r.Recording.Frames[i]).Elem())
		}
		w.u64(uint64(len(r.Violations)))
		for _, v := range r.Violations {
			w.value(reflect.ValueOf(v))
			keys := make([]string, 0, len(v.Evidence))
			for k := range v.Evidence {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				w.str(k)
				w.u64(math.Float64bits(v.Evidence[k]))
			}
		}
		w.value(reflect.ValueOf(*r.Sim))
		sums[i] = w.h.Sum(nil)
	}
	checkDigest(t, "testdata/frame_digest.txt", grid, sums)
}

// TestTraceEventDigest covers what TestFrameDigest does not see: over the
// same grid, with RecordTrace set, it hashes each run's trace CSV and its
// event log (scenario span, attack and guard lanes, violation episodes,
// hypotheses), recorded without wall-clock stamps, into one SHA-256 line
// per cell that must equal the committed one. Regenerate with
// -update-frame-digest.
func TestTraceEventDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("the 364-run grid is too slow under the race detector")
	}
	grid := frameDigestGrid()
	recs := make([]*events.Recorder, len(grid))
	for i := range grid {
		recs[i] = events.NewRecorder(0).WithoutWallClock()
		grid[i].Events = recs[i]
		grid[i].RecordFrames = false
		grid[i].RecordTrace = true
	}
	res, err := RunScenarios(context.Background(), grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][]byte, len(res))
	for i, r := range res {
		w := &digestWriter{h: sha256.New()}
		var buf bytes.Buffer
		if err := r.Sim.Trace.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		w.str(buf.String())
		buf.Reset()
		if err := recs[i].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		w.str(buf.String())
		sums[i] = w.h.Sum(nil)
	}
	checkDigest(t, "testdata/trace_event_digest.txt", grid, sums)
}

// digestLines renders one line per grid cell: its track, controller,
// attack and guard setting, then the cell's hex digest.
func digestLines(grid []Scenario, sums [][]byte) []string {
	lines := make([]string, len(grid))
	for i, s := range grid {
		guard := "unguarded"
		if s.Guarded {
			guard = "guarded"
		}
		lines[i] = fmt.Sprintf("%s %s %s %s %s", s.Track, s.Controller, s.Attack, guard, hex.EncodeToString(sums[i]))
	}
	return lines
}

// checkDigest compares the grid's per-cell digests with the lines
// committed at path, naming every cell that moved, or rewrites the file
// under -update-frame-digest.
func checkDigest(t *testing.T, path string, grid []Scenario, sums [][]byte) {
	t.Helper()
	got := digestLines(grid, sums)
	if *updateFrameDigest {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s: %d cells committed, the grid has %d", path, len(want), len(got))
	}
	var moved []string
	for i := range got {
		if got[i] != want[i] {
			moved = append(moved, strings.Join(strings.Fields(got[i])[:4], " "))
		}
	}
	if len(moved) > 0 {
		t.Fatalf("%s: %d of %d cells moved:\n  %s", path, len(moved), len(got), strings.Join(moved, "\n  "))
	}
}
