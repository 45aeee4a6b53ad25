// Command adassure-sim runs one simulated driving scenario with the
// ADAssure monitor attached and prints the run summary plus the debugging
// report (violation timeline and ranked root causes).
//
// Usage:
//
//	adassure-sim -track urban-loop -controller pure-pursuit \
//	    -attack gnss-drift-spoof -seed 1 -duration 70 [-guard] \
//	    [-trace out.csv] [-json out.json]
//
// With -seeds N (N > 1) the same scenario is repeated for N consecutive
// seeds, fanned across -workers goroutines (default GOMAXPROCS), and a
// per-seed detection summary is printed instead of the single-run report.
//
// Observability: -metrics out.prom writes the metrics of the run (sim
// step histogram, per-assertion monitoring cost, runner job stats; see
// the README "Observability" section) as Prometheus text, and -pprof addr
// serves net/http/pprof plus the live registry at /metrics for the
// lifetime of the process.
//
// Forensics: -events out.json records the structured event timeline
// (scenario span, attack window, violation episodes, guard fallback) and
// writes it as JSON; -perfetto out.json exports the same timeline as
// Chrome trace-event JSON loadable in ui.perfetto.dev; -flight N bounds
// the recorder to the newest N events; -bundles dir/ writes one forensic
// bundle per violation episode (trace slice, frames, attack state, eval
// history, diagnosis) into the directory. Inspect any of these files with
// adassure-trace events|perfetto|bundle.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"adassure"
	"adassure/internal/attacks"
	"adassure/internal/cli"
	"adassure/internal/track"
)

// fatal prints err under the program name and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adassure-sim:", err)
	os.Exit(1)
}

// writeBundles emits one forensic bundle per violation episode of the run
// into dir, filenames prefixed to keep multi-seed sweeps collision-free.
// Returns the number of bundles written.
func writeBundles(out *adassure.ScenarioResult, dir, prefix string) int {
	if dir == "" {
		return 0
	}
	bundles := out.ForensicBundles(0)
	if len(bundles) == 0 {
		return 0
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(fmt.Errorf("create bundle dir: %w", err))
	}
	for i := range bundles {
		b := &bundles[i]
		if err := cli.Write(io.Discard, filepath.Join(dir, prefix+b.Filename()), "bundle", b.WriteJSON); err != nil {
			fatal(err)
		}
	}
	return len(bundles)
}

func main() {
	var (
		trackName  = flag.String("track", "urban-loop", "track: "+strings.Join(adassure.Names().Tracks, "|"))
		controller = flag.String("controller", "pure-pursuit", "lateral controller: "+strings.Join(adassure.Names().Controllers, "|"))
		attack     = flag.String("attack", "none", "attack class (see adassure.AttackNames) or none")
		seed       = flag.Int64("seed", 1, "random seed")
		duration   = flag.Float64("duration", attacks.ScenarioDuration, "simulated seconds")
		onset      = flag.Float64("attack-start", attacks.DefaultOnset, "attack onset (s)")
		end        = flag.Float64("attack-end", attacks.DefaultEnd, "attack end (s)")
		speedLimit = flag.Float64("speed-limit", track.DefaultSpeedLimit, "route speed limit (m/s)")
		guard      = flag.Bool("guard", false, "enable the assertion-guarded stack")
		scale      = flag.Float64("threshold-scale", 1, "catalog threshold scale")
		traceCSV   = flag.String("trace", "", "write the signal trace as CSV to this file")
		traceJSON  = flag.String("json", "", "write the signal trace as JSON to this file")
		reportMD   = flag.String("report", "", "write the full Markdown debugging report to this file")
		recordOut  = flag.String("record", "", "write the frame recording (for offline re-monitoring) to this file")
		list       = flag.Bool("list", false, "list available tracks, controllers, attacks and localizers, then exit")
		seedCount  = flag.Int("seeds", 1, "run this many consecutive seeds (starting at -seed) and print a per-seed summary")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "scenario-execution pool size for -seeds > 1")
		bundleDir  = flag.String("bundles", "", "write one forensic bundle JSON per violation episode into this directory")
	)
	o := cli.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		n := adassure.Names()
		fmt.Println("tracks:      " + strings.Join(n.Tracks, " "))
		fmt.Println("controllers: " + strings.Join(n.Controllers, " "))
		fmt.Println("attacks:     " + strings.Join(n.Attacks, " "))
		fmt.Println("localizers:  " + strings.Join(n.Localizers, " "))
		return
	}

	o.Start(os.Stderr)
	reg, rec := o.Registry, o.Recorder
	// Bundles need the trace and frame stream around each violation, and
	// carry the assertion eval history when a registry is attached — force
	// all three on. Trace and report outputs need the trace too.
	if *bundleDir != "" && reg == nil {
		reg = adassure.NewRegistry()
	}
	scn := adassure.Scenario{
		Track:          adassure.TrackName(*trackName),
		Controller:     adassure.ControllerName(*controller),
		Attack:         adassure.AttackName(*attack),
		AttackStart:    *onset,
		AttackEnd:      *end,
		Seed:           *seed,
		Duration:       *duration,
		SpeedLimit:     *speedLimit,
		Guarded:        *guard,
		ThresholdScale: *scale,
		RecordFrames:   *recordOut != "" || *bundleDir != "",
		RecordTrace:    *traceCSV != "" || *traceJSON != "" || *reportMD != "" || *bundleDir != "",
	}

	if *seedCount > 1 {
		if *traceCSV != "" || *traceJSON != "" || *reportMD != "" || *recordOut != "" {
			fmt.Fprintln(os.Stderr, "adassure-sim: file outputs (-trace/-json/-report/-record) apply to single-seed runs only")
			os.Exit(1)
		}
		runSweep(scn, *seedCount, *workers, reg, rec, *bundleDir)
		if err := o.Finish(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	// Single runs still go through the scenario runner so the metrics
	// carry runner job stats alongside the sim/monitor metrics.
	outs, err := adassure.RunScenarioBatch(adassure.BatchOptions{Workers: 1, Obs: reg, Events: rec}, []adassure.Scenario{scn})
	if err != nil {
		fatal(err)
	}
	out := outs[0]

	r := out.Sim
	fmt.Printf("run: track=%s controller=%s attack=%s seed=%d guard=%v\n",
		*trackName, *controller, *attack, *seed, *guard)
	fmt.Printf("sim time %.1f s, %d control steps, progress %.1f m (%d laps)\n",
		r.SimTime, r.Steps, r.ProgressTotal, r.Laps)
	fmt.Printf("max |true CTE| %.2f m, RMS %.2f m, believed max %.2f m\n",
		r.MaxTrueCTE, r.RMSTrueCTE, r.MaxEstCTE)
	if r.Diverged {
		fmt.Println("RUN DIVERGED: vehicle left the 100 m corridor")
	}
	if r.FallbackTime > 0 {
		fmt.Printf("guard fallback active %.1f s\n", r.FallbackTime)
	}
	fmt.Println()
	fmt.Print(out.Report())

	for _, f := range []struct {
		path, what string
		fn         func(io.Writer) error
	}{
		{*traceCSV, "trace", r.Trace.WriteCSV},
		{*reportMD, "report", out.WriteMarkdownReport},
		{*recordOut, "recording", out.Recording.Write},
		{*traceJSON, "trace", r.Trace.WriteJSON},
	} {
		if err := cli.Write(os.Stdout, f.path, f.what, f.fn); err != nil {
			fatal(err)
		}
	}
	if n := writeBundles(out, *bundleDir, ""); n > 0 {
		fmt.Printf("%d forensic bundle(s) written to %s\n", n, *bundleDir)
	} else if *bundleDir != "" {
		fmt.Println("no violations: no forensic bundles written")
	}
	if err := o.Finish(os.Stdout); err != nil {
		fatal(err)
	}
}

// runSweep repeats the scenario for n consecutive seeds across the worker
// pool and prints a per-seed detection summary. Results are seed-ordered
// and identical to running each seed on its own.
func runSweep(scn adassure.Scenario, n, workers int, reg *adassure.Registry, rec *adassure.EventRecorder, bundleDir string) {
	scns := make([]adassure.Scenario, n)
	for i := range scns {
		scns[i] = scn
		scns[i].Seed = scn.Seed + int64(i)
	}
	outs, err := adassure.RunScenarioBatch(adassure.BatchOptions{Workers: workers, Obs: reg, Events: rec}, scns)
	if err != nil {
		fatal(err)
	}
	if bundleDir != "" {
		total := 0
		for i, out := range outs {
			total += writeBundles(out, bundleDir, fmt.Sprintf("seed%d_", scns[i].Seed))
		}
		fmt.Printf("%d forensic bundle(s) written to %s\n", total, bundleDir)
	}

	fmt.Printf("sweep: track=%s controller=%s attack=%s seeds=%d..%d guard=%v workers=%d\n\n",
		scn.Track, scn.Controller, scn.Attack, scn.Seed, scn.Seed+int64(n-1), scn.Guarded, workers)
	fmt.Printf("%-6s %-14s %-10s %-8s %-10s %-22s\n",
		"seed", "max|CTE| (m)", "detected", "by", "latency", "top cause")
	fmt.Println("-------------------------------------------------------------------------")
	detected := 0
	for i, out := range outs {
		det, by, lat := "no", "-", "-"
		for _, v := range out.Violations {
			if v.T >= scn.AttackStart {
				det, by = "yes", v.AssertionID
				lat = fmt.Sprintf("%.2f s", v.T-scn.AttackStart)
				detected++
				break
			}
		}
		cause := "-"
		if len(out.Hypotheses) > 0 {
			cause = string(out.Hypotheses[0].Cause)
		}
		fmt.Printf("%-6d %-14.2f %-10s %-8s %-10s %-22s\n",
			scns[i].Seed, out.Sim.MaxTrueCTE, det, by, lat, cause)
	}
	if scn.Attack != adassure.AttackNone {
		fmt.Printf("\ndetected %d/%d runs post-onset\n", detected, n)
	}
}
