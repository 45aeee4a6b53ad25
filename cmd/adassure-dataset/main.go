// Command adassure-dataset generates a labelled violation-signature corpus
// as CSV: it runs every attack class (plus clean runs) across seeds and
// emits one feature row per run — per-assertion episode counts, longest
// episode durations and first-detection latencies — for external analysis
// or ML experimentation on top of the ADAssure evidence.
//
// Usage:
//
//	adassure-dataset -seeds 5 [-workers N] > corpus.csv
//
// Every (class × seed) cell is an adassure.Scenario on urban-loop, run
// through adassure.RunScenarioBatch across -workers goroutines (default
// GOMAXPROCS). Results are index-ordered and every run is deterministic in
// its seed, so the CSV on stdout is byte-identical for any worker count,
// including 1. The feature columns cover adassure.Names().Assertions.
//
// Observability: -metrics out.prom writes the metrics of the whole
// campaign (sim step histogram, per-assertion monitoring cost, runner job
// stats) as Prometheus text, -pprof addr serves net/http/pprof plus the
// live registry at /metrics while the campaign runs, -events out.json records
// the structured event timeline across all runs (one scenario lane per
// run, scoped "s<index>/", with its attack window, violation episodes and
// diagnosis, plus one runner lane per pool worker), -perfetto out.json
// exports that timeline as Chrome trace-event JSON (open in
// ui.perfetto.dev) and -flight N bounds the recorder to the newest N
// events.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"adassure"
	"adassure/internal/attacks"
	"adassure/internal/cli"
	"adassure/internal/coverage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adassure-dataset:", err)
		os.Exit(1)
	}
}

// run generates the corpus onto stdout; it is main minus process exit so
// tests can compare the CSV bytes across worker counts.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("adassure-dataset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds      = fs.Int("seeds", 5, "seeds per class")
		controller = fs.String("controller", "pure-pursuit", "lateral controller")
		duration   = fs.Float64("duration", attacks.ScenarioDuration, "run duration (s)")
		onset      = fs.Float64("onset", attacks.DefaultOnset, "attack onset (s)")
		end        = fs.Float64("end", attacks.DefaultEnd, "attack end (s)")
		workers    = fs.Int("workers", 0, "parallel simulation workers (default GOMAXPROCS; 1 = sequential)")
	)
	o := cli.Register(fs)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	o.Start(stderr)

	// The grid is canonicalized up front, so a bad flag is an error before
	// anything runs and each row is labelled with the window its run used.
	var scns []adassure.Scenario
	for _, attack := range adassure.Names().Attacks {
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			scn, err := adassure.Scenario{
				Controller:  adassure.ControllerName(*controller),
				Attack:      adassure.AttackName(attack),
				AttackStart: *onset, AttackEnd: *end,
				Seed: seed, Duration: *duration,
			}.Canonicalize()
			if err != nil {
				return err
			}
			scns = append(scns, scn)
		}
	}
	outs, err := adassure.RunScenarioBatch(adassure.BatchOptions{
		Workers: *workers, Obs: o.Registry, Events: o.Recorder,
	}, scns)
	if err != nil {
		return err
	}

	runs := make([]coverage.Run, len(outs))
	for i, out := range outs {
		s := scns[i]
		runs[i] = coverage.Run{Label: string(s.Attack), Onset: -1, Violations: out.Violations}
		if s.Attack != adassure.AttackNone {
			runs[i].Onset = s.AttackStart
		}
		// Progress lines go out after collection, in grid order, so stderr
		// is as deterministic as the CSV regardless of worker interleaving.
		fmt.Fprintf(stderr, "ran %s seed %d (%d violations)\n", s.Attack, s.Seed, len(out.Violations))
	}
	if err := coverage.WriteDatasetCSV(stdout, runs, adassure.Names().Assertions); err != nil {
		return err
	}
	return o.Finish(stderr)
}
