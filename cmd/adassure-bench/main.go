// Command adassure-bench regenerates the evaluation tables and figures
// (T1–T6, F1–F6, extensions X1–X5, mutation matrix M1) from fresh runs and prints them as aligned
// plain-text tables — the reproduction counterpart of the paper's
// evaluation section. See EXPERIMENTS.md for the expected shapes.
//
// Usage:
//
//	adassure-bench            # all experiments, default seeds
//	adassure-bench -id T2     # one experiment
//	adassure-bench -seeds 5   # more repetitions
//	adassure-bench -quick     # fast smoke pass
//	adassure-bench -workers 8 # scenario-pool size (default GOMAXPROCS)
//
// The scenario grid of every experiment fans out across -workers
// goroutines; the tables are byte-identical for any worker count
// (including 1), so -workers only changes wall-clock time.
//
// Observability: -metrics out.prom writes the runtime metrics aggregated
// across every scenario the selected experiments ran (runner job stats,
// sim step histograms, per-assertion monitoring cost) as Prometheus text,
// and -pprof addr serves net/http/pprof plus the live registry at
// /metrics.
// Attaching the registry never changes the rendered tables.
//
// Forensics: -events out.json records the structured event timeline of
// every scenario the experiments fan out (tracks scoped per grid cell,
// plus one runner lane per pool worker) and writes it as JSON; -perfetto
// out.json exports the same timeline as Chrome trace-event JSON loadable
// in ui.perfetto.dev; -flight N bounds the recorder to the newest N
// events; -bundles dir/ writes one forensic bundle per violation episode
// of every attacked grid cell. None of these change the rendered tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"adassure"
	"adassure/internal/cli"
)

func main() {
	var (
		id         = flag.String("id", "", "single experiment to run (T1..T6, F1..F6, X1..X5, M1); empty = all")
		seeds      = flag.Int("seeds", 3, "seeds per configuration")
		quick      = flag.Bool("quick", false, "shorten runs for a smoke pass")
		controller = flag.String("controller", "pure-pursuit", "default lateral controller")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "scenario-execution pool size")
		bundleDir  = flag.String("bundles", "", "write one forensic bundle JSON per violation episode into this directory")
	)
	o := cli.Register(flag.CommandLine)
	flag.Parse()

	o.Start(os.Stderr)
	opts := adassure.ExperimentOptions{
		Seeds: *seeds, Quick: *quick, Controller: *controller, Workers: *workers,
		Obs: o.Registry, Events: o.Recorder, BundleDir: *bundleDir,
	}

	run := func(eid string) {
		start := time.Now()
		tb, err := adassure.RunExperiment(eid, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adassure-bench: %s: %v\n", eid, err)
			os.Exit(1)
		}
		if err := tb.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "adassure-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("(%s regenerated in %.1fs)\n\n", eid, time.Since(start).Seconds())
	}

	if *id != "" {
		run(*id)
	} else {
		for _, e := range adassure.Experiments() {
			run(e.ID)
		}
	}
	if err := o.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adassure-bench:", err)
		os.Exit(1)
	}
}
