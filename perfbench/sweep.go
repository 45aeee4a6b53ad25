package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"adassure"
	"adassure/internal/vehicle"
)

var (
	sweepTracks = []adassure.TrackName{
		adassure.TrackStraight, adassure.TrackCircle, adassure.TrackSCurve,
		adassure.TrackFigureEight, adassure.TrackDoubleLaneChange,
		adassure.TrackUrbanLoop, adassure.TrackHairpin,
	}
	sweepControllers = []adassure.ControllerName{
		adassure.ControllerPurePursuit, adassure.ControllerStanley,
		adassure.ControllerPIDLateral, adassure.ControllerLQRMPC,
	}
)

// attackClasses are the attack classes inputs are drawn over, none
// included: 13 of them.
func attackClasses() []adassure.AttackName {
	return append([]adassure.AttackName{adassure.AttackNone}, adassure.AttackNames()...)
}

// chunkSize is the number of scenarios in one sweep chunk: one per track
// and controller.
var chunkSize = len(sweepTracks) * len(sweepControllers)

// sweepGrid draws the sweep's batch from seed: every built-in track ×
// every controller × every attack class (none included) at the full
// default length, each with a drawn scenario seed. The full product keeps
// the batch's cost the same from seed to seed; every track is in it
// because projection cost grows with path length. The guard setting
// alternates over the grid rather than being drawn, because which cells
// ran guarded moved the median scenario time by up to 20% between seeds.
//
// The grid is laid out as one chunk of chunkSize scenarios per attack
// class count: chunk j runs every track × controller pair, the pair's
// attack class shifted by j, so every chunk has the same track and
// controller mix and the chunks together cover the product once.
func sweepGrid(seed int64) []adassure.Scenario {
	rng := rand.New(rand.NewSource(seed))
	classes := attackClasses()
	var grid []adassure.Scenario
	for j := range classes {
		for ti, tr := range sweepTracks {
			for ci, ctl := range sweepControllers {
				ai := (j + ti + len(sweepTracks)*ci) % len(classes)
				grid = append(grid, adassure.Scenario{
					Track: tr, Controller: ctl, Attack: classes[ai],
					Guarded: (ti+ci+ai)%2 == 1, Seed: 1 + rng.Int63n(1_000_000),
				})
			}
		}
	}
	return grid
}

// sweepSetup is what a sweep does before its first batch: draw the grid,
// build every built-in track, and run one warm-up scenario so the heap
// reaches its working size.
func sweepSetup(ctx context.Context, seed int64) ([]adassure.Scenario, error) {
	grid := sweepGrid(seed)
	for _, name := range sweepTracks {
		if _, err := adassure.BuiltinTrack(name, 6); err != nil {
			return nil, err
		}
	}
	if _, err := (adassure.Scenario{}).RunContext(ctx); err != nil {
		return nil, fmt.Errorf("warm-up scenario: %w", err)
	}
	return grid, nil
}

// outcome is what the benchmark keeps of one scenario run.
type outcome struct {
	digest  string
	simTime float64
}

// digest fingerprints a run: its step count, violation record, ranked
// hypotheses and final vehicle state.
func digest(steps int, vs []adassure.Violation, hs []adassure.Hypothesis, final vehicle.State) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", steps)
	for _, v := range vs {
		fmt.Fprintf(h, "%s %v %v %v\n", v.AssertionID, v.T, v.FirstBreach, v.Duration)
	}
	for _, hy := range hs {
		fmt.Fprintf(h, "%s %v\n", hy.Cause, hy.Confidence)
	}
	fmt.Fprintf(h, "%v %v %v %v\n", final.X, final.Y, final.Heading, final.Speed)
	return hex.EncodeToString(h.Sum(nil))
}

// runPlain runs one scenario through the public façade.
func runPlain(ctx context.Context, s adassure.Scenario) (outcome, error) {
	out, err := s.RunContext(ctx)
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest(out.Sim.Steps, out.Violations, out.Hypotheses, out.Sim.Final), out.Sim.SimTime}, nil
}

// runGrid runs every scenario of grid once, one after another, and returns
// each scenario's wall time, outcome and error. It makes the per-scenario
// call adassure.RunScenarios makes (Scenario.RunContext, or its traced
// twin), which RunScenarios itself does not time. One worker leaves the
// machine's second core to the garbage collector and the rest of the
// system: with two workers on two cores, load from elsewhere on a shared
// host slowed every scenario it overlapped.
func runGrid(ctx context.Context, grid []adassure.Scenario, run func(context.Context, adassure.Scenario) (outcome, error)) ([]time.Duration, []outcome, []error) {
	lat := make([]time.Duration, len(grid))
	outs := make([]outcome, len(grid))
	errs := make([]error, len(grid))
	for i := range grid {
		start := time.Now()
		outs[i], errs[i] = run(ctx, grid[i])
		lat[i] = time.Since(start)
	}
	return lat, outs, errs
}

// compare counts the runs of grid[lo:lo+len(outs)] into r and checks each
// outcome against ref, the digest of the scenario's first run; a
// scenario's first run fills in its digest.
func (r *report) compare(ref []string, lo int, outs []outcome, errs []error, what string) {
	for i := range outs {
		r.attempted++
		g := lo + i
		switch {
		case errs[i] != nil:
			r.opFailed(fmt.Errorf("scenario %d: %w", g, errs[i]))
		case ref[g] == "":
			ref[g] = outs[i].digest
		case outs[i].digest != ref[g]:
			r.checkFailed(fmt.Errorf("scenario %d: %s run's digest differs from its first untraced run's", g, what))
		}
	}
}

// okMS appends the wall times of the ops that did not fail, in ms.
func okMS(xs []float64, lat []time.Duration, errs []error) []float64 {
	for i := range lat {
		if errs[i] == nil {
			xs = append(xs, ms(lat[i]))
		}
	}
	return xs
}

func runSweep(ctx context.Context, cfg runConfig) (*report, error) {
	var setup []float64
	var grid []adassure.Scenario
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		g, err := sweepSetup(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		grid = g
	}
	if cfg.trace {
		return sweepTraced(ctx, cfg, grid)
	}
	rep := newReport()
	ref := make([]string, len(grid))
	chunks := len(grid) / chunkSize
	// One trial per chunk, holding every run of it: chunks differ in cost,
	// so a median over runs would move with how many of the first chunks
	// the time allowed to run twice.
	trials := make([]trial, chunks)
	simSeconds := make([]float64, chunks)
	deadline := time.Now().Add(cfg.measure)
	// Chunks run in turn until the time is up, and at least one beyond a
	// whole pass, so some digests are always checked against an earlier run.
	runs := 0
	for ; runs <= chunks || time.Now().Before(deadline); runs++ {
		j := runs % chunks
		lo := j * chunkSize
		t := &trials[j]
		begin := readUsage()
		lat, outs, errs := runGrid(ctx, grid[lo:lo+chunkSize], runPlain)
		t.add(begin, readUsage())
		failed := rep.failed
		rep.compare(ref, lo, outs, errs, "repeated")
		t.latencyMS = okMS(t.latencyMS, lat, errs)
		t.ops += chunkSize
		t.good += chunkSize - (rep.failed - failed)
		for i := range outs {
			simSeconds[j] += outs[i].simTime
		}
	}
	reportEndToEnd(rep, setup, trials)
	rtFactors := make([]float64, chunks)
	for j := range trials {
		rtFactors[j] = simSeconds[j] / trials[j].wall.Seconds()
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("closed batch on one worker: %d scenarios in %d chunks of %d, %d chunk runs, one trial per chunk", len(grid), chunks, chunkSize, runs),
		fmt.Sprintf("sim_rt_factor %.1f simulated s per wall s (median over chunks)", median(rtFactors)))
	return rep, nil
}

// sweepTraced runs the grid untraced for half the time and through the
// timing wrappers for the other half, replays every scenario's frames
// through the monitor, and reports the simulation ledger. Every traced
// digest must equal the untraced one.
func sweepTraced(ctx context.Context, cfg runConfig, grid []adassure.Scenario) (*report, error) {
	rep := newReport()
	ref := make([]string, len(grid))
	var plain, traced []float64
	deadline := time.Now().Add(cfg.measure / 2)
	for pass := 0; pass < 1 || time.Now().Before(deadline); pass++ {
		lat, outs, errs := runGrid(ctx, grid, runPlain)
		rep.compare(ref, 0, outs, errs, "untraced")
		plain = okMS(plain, lat, errs)
	}
	led := &simLedger{}
	deadline = time.Now().Add(cfg.measure / 2)
	for pass := 0; pass < 1 || time.Now().Before(deadline); pass++ {
		lat, outs, errs := runGrid(ctx, grid, led.run)
		rep.compare(ref, 0, outs, errs, "traced")
		traced = okMS(traced, lat, errs)
	}
	if err := led.replayAll(ctx, grid); err != nil {
		rep.checkFailed(err)
	}
	share, table, err := led.fill(rep.values)
	if err != nil {
		rep.checkFailed(err)
	}
	rep.values["ledger.unattributed_share"] = share
	rep.values["trace.overhead"] = ratio(mean(traced), mean(plain))
	rep.notes = append(rep.notes, fmt.Sprintf("simulation ledger over %d traced scenarios:", led.scenarios))
	rep.notes = append(rep.notes, table...)
	return rep, nil
}
