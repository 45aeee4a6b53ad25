package harness

import (
	"fmt"

	"adassure/internal/mutate"
	"adassure/internal/sim"
)

// campaign is the base of M1's and S1's campaigns: the experiment's
// controller, pool and observers at seed 1 on the given tracks (nil: the
// campaign default), with the campaign run length outside quick mode.
func campaign(o Options, tracks []string, quickDuration float64) mutate.Campaign {
	c := mutate.Campaign{
		Controller: o.Controller,
		Tracks:     tracks,
		Seed:       1,
		Duration:   sim.DefaultDuration,
		Workers:    o.Workers,
		Obs:        o.Obs,
		Events:     o.Events,
	}
	if o.Quick {
		c.Duration = quickDuration
	}
	return c
}

// mutationCampaign runs the default-grid campaign behind M1 with the
// experiment options applied. Quick mode runs 40 s, the shortest duration
// at which every non-identity controller mutant of the default grid is
// still killed.
func mutationCampaign(o Options) (*mutate.Report, error) {
	o.defaults()
	return mutate.Run(mutate.Config{Campaign: campaign(o, nil, 40)})
}

// ExperimentM1MutationKillMatrix regenerates M1: the mutation-testing kill
// matrix that scores the assertion catalog. One row per mutant of the
// default grid; an X marks each assertion that killed the mutant (fired on
// the mutated run but not on the clean baseline of the same track and
// seed). The identity row is the soundness guard: it must stay all dots.
func ExperimentM1MutationKillMatrix(o Options) (*Table, error) {
	o.defaults()
	rep, err := mutationCampaign(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "M1",
		Title: "Mutation kill matrix: assertion × mutant (any track, vs per-track baseline)",
		Notes: []string{
			fmt.Sprintf("tracks %v, %s controller, seed %d, %.0f s/run; mutants active from t=0",
				rep.Tracks, rep.Controller, rep.Seed, rep.Duration),
			fmt.Sprintf("mutation score %.0f%% of non-identity mutants killed; survivors ranked in the survivor report",
				100*rep.MutationScore),
			"latency = raise time of the first kill-qualifying violation across tracks",
		},
	}
	t.Columns, t.Rows = rep.KillMatrix()
	return t, nil
}
