package harness

import (
	"fmt"
	"strconv"

	"adassure/internal/search"
)

// searchBudget is the per-(track × channel) oracle budget of S1.
func searchBudget(o Options) int {
	if o.Quick {
		return 8
	}
	return 14
}

// searchTracks keeps quick mode to the nominal route; the full experiment
// adds the demanding one, mirroring the mutation campaign.
func searchTracks(o Options) []string {
	if o.Quick {
		return []string{"urban-loop"}
	}
	return []string{"urban-loop", "hairpin"}
}

// searchChannels is the S1 search space: the default channels, with the
// quantize axis narrowed to the sub-noise-through-marginal band the M1
// survivor lived in so the descent spends its budget where the frontier
// actually moved.
func searchChannels() []search.Spec {
	chans := search.DefaultChannels()
	for i := range chans {
		if chans[i].Op == "sense-gnss-quantize" {
			chans[i].Min, chans[i].Max = 0.05, 2.5
		}
	}
	return chans
}

// searchCampaign runs one S1 search under an assertion subset (nil = full
// catalog). Quick mode runs 30 s, the shortest duration at which every
// default-channel frontier point of the full catalog is stable.
func searchCampaign(o Options, assertions []string) (*search.Report, error) {
	o.defaults()
	return search.Run(search.Config{
		Campaign:   campaign(o, searchTracks(o), 30),
		Channels:   searchChannels(),
		Assertions: assertions,
		Budget:     searchBudget(o),
	})
}

// ExperimentS1EvasionFrontier regenerates S1: the adversarial-search
// evasion frontier, before and after the catalog strengthening that closed
// the M1 survivor gap. The searcher descends each attack channel's
// magnitude axis twice — once against the catalog without the A15 lattice
// detector (the catalog that left sub-noise GNSS quantize alive) and once
// against the full catalog — and the table renders, per track × channel,
// the largest evading attack with its minimality certificate under each
// catalog. The verdict column states the frontier movement: "closed" when
// the evasion region vanished, "retreated" when it shrank, "unchanged"
// when the channel was never affected by A15.
func ExperimentS1EvasionFrontier(o Options) (*Table, error) {
	o.defaults()
	after, err := searchCampaign(o, nil)
	if err != nil {
		return nil, err
	}
	weakened := make([]string, 0, len(after.Assertions)-1)
	for _, id := range after.Assertions {
		if id != "A15" {
			weakened = append(weakened, id)
		}
	}
	before, err := searchCampaign(o, weakened)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "S1",
		Title: "Adversarial evasion frontier: largest undetected attack per track × channel, before/after catalog strengthening",
		Columns: []string{"track", "channel",
			"evading (pre-A15)", "certificate (pre-A15)",
			"evading (full)", "certificate (full)", "frontier"},
		Notes: []string{
			fmt.Sprintf("tracks %v, %s controller, seed %d, %.0f s/run, descent budget %d per track × channel",
				after.Tracks, after.Controller, after.Seed, after.Duration, after.Budget),
			"pre-A15 = full catalog minus the A15 lattice detector (the catalog that left the M1 sub-noise quantize survivor alive)",
			"certificate = smallest detected neighbor of the evading attack, with the assertions that caught it",
			fmt.Sprintf("probe runs: %d pre-A15 + %d full (plus %d baselines each)",
				before.TotalEvals, after.TotalEvals, len(after.Tracks)),
		},
	}
	for _, bp := range before.Frontier {
		ap, ok := after.PointFor(bp.Track, bp.Channel)
		if !ok {
			return nil, fmt.Errorf("harness: S1 frontier point %s/%s missing from the full-catalog run", bp.Track, bp.Channel)
		}
		verdict := "unchanged"
		switch {
		case bp.Evading > 0 && ap.Evading == 0:
			verdict = "closed"
		case ap.Evading < bp.Evading:
			verdict = "retreated"
		case ap.Evading > bp.Evading:
			verdict = "ADVANCED"
		}
		t.Rows = append(t.Rows, []string{
			bp.Track, bp.Channel,
			frontierCell(bp), certificateCell(bp),
			frontierCell(ap), certificateCell(ap),
			verdict,
		})
	}
	return t, nil
}

// frontierCell renders one point's evading magnitude.
func frontierCell(p search.FrontierPoint) string {
	if p.Evading == 0 {
		return "none (" + p.Status + ")"
	}
	return strconv.FormatFloat(p.Evading, 'g', 4, 64)
}

// certificateCell renders one point's minimality certificate.
func certificateCell(p search.FrontierPoint) string {
	if p.Detected == 0 {
		return "-"
	}
	s := strconv.FormatFloat(p.Detected, 'g', 4, 64)
	if len(p.DetectedBy) > 0 {
		s += fmt.Sprintf(" %v", p.DetectedBy)
	}
	return s
}
