package mutate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adassure/internal/events"
)

// propertyTracks keeps property-test campaigns cheap: one short run per
// mutant on one route.
var propertyTracks = []string{"urban-loop", "hairpin"}

// TestPropertyKillHasEpisodeAndLatency checks, over randomly drawn
// (mutant, track, seed) cells, the engine's cross-layer invariants:
//
//  1. every kill recorded in the matrix has a corresponding violation
//     episode in the event timeline (a Begin on the cell's scoped
//     "assertion/<ID>" track),
//  2. detection latency is non-negative whenever a mutant is killed and
//     -1 exactly when it survives.
func TestPropertyKillHasEpisodeAndLatency(t *testing.T) {
	catalog := DefaultCatalog()
	property := func(mutantPick, trackPick uint8, seedPick uint8) bool {
		spec := catalog[int(mutantPick)%len(catalog)]
		trackName := propertyTracks[int(trackPick)%len(propertyTracks)]
		rec := events.NewRecorder(0)
		rep, err := Run(Config{
			Campaign: Campaign{Tracks: []string{trackName}, Seed: int64(seedPick%4) + 1, Duration: 30, Events: rec},
			Mutants:  []Spec{spec},
		})
		if err != nil {
			t.Logf("run failed for %s: %v", spec.ID(), err)
			return false
		}
		evs := rec.Events()
		for _, cell := range rep.Cells {
			if (cell.Latency >= 0) != (len(cell.Kills) > 0) {
				t.Logf("%s/%s: latency %g inconsistent with kills %v",
					cell.Mutant, cell.Track, cell.Latency, cell.Kills)
				return false
			}
			for _, id := range cell.Kills {
				wantTrack := cell.Mutant + "/" + cell.Track + "/assertion/" + id
				found := false
				for _, e := range evs {
					if e.Kind == events.Begin && e.Cat == events.CatViolation && e.Track == wantTrack {
						found = true
						break
					}
				}
				if !found {
					t.Logf("%s/%s: kill by %s has no violation episode on track %q",
						cell.Mutant, cell.Track, id, wantTrack)
					return false
				}
			}
		}
		for _, s := range rep.Scores {
			if s.Killed && s.Latency < 0 {
				t.Logf("%s: killed but latency %g", s.Mutant, s.Latency)
				return false
			}
			if !s.Killed && s.Latency != -1 {
				t.Logf("%s: survived but latency %g", s.Mutant, s.Latency)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 8,
		Rand:     rand.New(rand.NewSource(1)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyIdentityNeverKilled is the false-positive guard: over random
// (track, seed) draws, the identity mutant — whose run is definitionally
// the baseline run — must never be killed by any assertion.
func TestPropertyIdentityNeverKilled(t *testing.T) {
	property := func(trackPick, seedPick uint8) bool {
		trackName := propertyTracks[int(trackPick)%len(propertyTracks)]
		rep, err := Run(Config{
			Campaign: Campaign{Tracks: []string{trackName}, Seed: int64(seedPick%5) + 1, Duration: 30},
			Mutants:  []Spec{{Op: OpIdentity}},
		})
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		s := rep.Scores[0]
		if s.Killed || len(s.KilledBy) > 0 || s.Latency != -1 {
			t.Logf("identity killed on %s seed %d: %+v", trackName, int64(seedPick%5)+1, s)
			return false
		}
		// The identity cell must reproduce the baseline exactly: same
		// fired set and violation count.
		base, cell := rep.Baselines[0], rep.Cells[0]
		if cell.Violations != base.Violations || len(cell.Fired) != len(base.Fired) {
			t.Logf("identity cell drifted from baseline: %+v vs %+v", cell, base)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 6,
		Rand:     rand.New(rand.NewSource(2)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyListsInCatalogOrder checks, over randomly drawn (mutant,
// track, seed) cells, that every fired and kill list of the report keeps
// catalog order: each cell's and baseline's Fired and Kills, and each
// score's KilledBy, is a subsequence of Report.Assertions. Catalog order
// is not string order: A10 sorts before A2, and A12 is registered last.
func TestPropertyListsInCatalogOrder(t *testing.T) {
	catalog := DefaultCatalog()
	property := func(mutantPick, trackPick, seedPick uint8) bool {
		spec := catalog[int(mutantPick)%len(catalog)]
		trackName := propertyTracks[int(trackPick)%len(propertyTracks)]
		rep, err := Run(Config{
			Campaign: Campaign{Tracks: []string{trackName}, Seed: int64(seedPick%4) + 1, Duration: 30},
			Mutants:  []Spec{spec},
		})
		if err != nil {
			t.Logf("run failed for %s: %v", spec.ID(), err)
			return false
		}
		lists := map[string][]string{"killed_by": rep.Scores[0].KilledBy}
		for _, c := range append(rep.Baselines, rep.Cells...) {
			lists[c.Mutant+"/"+c.Track+" fired"] = c.Fired
			lists[c.Mutant+"/"+c.Track+" kills"] = c.Kills
		}
		for name, ids := range lists {
			if !subsequence(ids, rep.Assertions) {
				t.Logf("%s %v is not in catalog order %v", name, ids, rep.Assertions)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 6,
		Rand:     rand.New(rand.NewSource(3)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// subsequence reports whether ids appear in order within all.
func subsequence(ids, all []string) bool {
	i := 0
	for _, id := range all {
		if i < len(ids) && ids[i] == id {
			i++
		}
	}
	return i == len(ids)
}
