// Command adassure-load drives an adassure-server with N concurrent
// scenario requests and prints throughput plus the client-observed
// latency distribution (p50/p95/p99 from the obs histogram).
//
// Usage:
//
//	adassure-load -target http://localhost:8080 [-n 100] [-c 8]
//	    [-attack gnss-drift-spoof] [-duration 20] [-spread-seeds 0]
//	    [-backoff] [-metrics out.json]
//	adassure-load -stream [-n 16] [-c 4] [-heartbeat 0] ...
//	adassure-load -jobs [-n 100] [-c 8] ...
//
// With -jobs each logical request goes through the async job API (POST
// /v1/jobs → poll → GET /v1/jobs/{id}/result) instead of the blocking
// /v1/run, so the tool measures the whole submit-to-terminal cycle of
// the job tier.
//
// With -spread-seeds 0 (the default) every request is identical, so
// after the first simulation the run measures the cache-hit/coalescing
// hot path. -spread-seeds K cycles the seed over K values, forcing K
// distinct simulations and exercising the pool + backpressure instead.
//
// With -stream the tool records one scenario locally, then drives
// POST /v1/stream with -n concurrent NDJSON frame-upload sessions and
// reports frame throughput plus whole-session latency.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adassure"
	"adassure/internal/obs"
	"adassure/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adassure-load:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr *os.File) error {
	fs := flag.NewFlagSet("adassure-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target      = fs.String("target", "http://localhost:8080", "server base URL")
		n           = fs.Int("n", 100, "total requests")
		conc        = fs.Int("c", 8, "concurrent in-flight requests")
		track       = fs.String("track", "urban-loop", "route name")
		controller  = fs.String("controller", "pure-pursuit", "lateral controller")
		attack      = fs.String("attack", "gnss-drift-spoof", "attack class (none for clean runs)")
		duration    = fs.Float64("duration", 20, "simulated seconds per request")
		guarded     = fs.Bool("guard", false, "run the defended stack")
		spreadSeeds = fs.Int("spread-seeds", 0, "cycle the seed over K values to force cache misses (0 = identical requests)")
		backoff     = fs.Bool("backoff", false, "honour 429 Retry-After hints instead of recording and moving on")
		metricsPath = fs.String("metrics", "", "write the client-side metrics snapshot to this file")
		timeout     = fs.Duration("timeout", 10*time.Minute, "overall load-run budget")
		streamMode  = fs.Bool("stream", false, "drive POST /v1/stream with NDJSON frame sessions instead of /v1/run")
		jobsMode    = fs.Bool("jobs", false, "drive the async job API (submit → wait → result) instead of /v1/run")
		heartbeat   = fs.Int("heartbeat", 0, "stream-mode heartbeat cadence in frames (0 = off)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := service.NewClient(*target)
	if err := client.Healthz(ctx); err != nil {
		return fmt.Errorf("target %s not healthy: %w", *target, err)
	}

	reg := obs.NewRegistry()
	if *streamMode {
		if err := runStream(ctx, client, reg, stdout, stderr, streamArgs{
			track: *track, controller: *controller, attack: *attack,
			duration: *duration, sessions: *n, concurrency: *conc,
			heartbeat: *heartbeat,
		}); err != nil {
			return err
		}
		return writeMetricsIfAsked(reg, *metricsPath, stdout)
	}
	base := service.Request{
		Track:      *track,
		Controller: *controller,
		Attack:     *attack,
		Duration:   *duration,
		Guarded:    *guarded,
	}
	mode, runLoad := "requests", service.RunLoad
	if *jobsMode {
		mode, runLoad = "jobs", service.RunJobLoad
	}
	fmt.Fprintf(stderr, "adassure-load: %d %s x %d in flight against %s\n", *n, mode, *conc, *target)
	report, err := runLoad(ctx, client, base, service.LoadOptions{
		Requests:    *n,
		Concurrency: *conc,
		SpreadSeeds: *spreadSeeds,
		Backoff:     *backoff,
		Obs:         reg,
	})
	if err != nil {
		return err
	}
	report.Print(stdout)
	return writeMetricsIfAsked(reg, *metricsPath, stdout)
}

type streamArgs struct {
	track, controller, attack string
	duration                  float64
	sessions, concurrency     int
	heartbeat                 int
}

// runStream records the scenario once locally, renders its frames as
// NDJSON and replays that document over the streaming endpoint with
// args.concurrency parallel sessions.
func runStream(ctx context.Context, client *service.Client, reg *obs.Registry, stdout, stderr *os.File, args streamArgs) error {
	res, err := adassure.Scenario{
		Track:        adassure.TrackName(args.track),
		Controller:   adassure.ControllerName(args.controller),
		Attack:       adassure.AttackName(args.attack),
		Seed:         1,
		Duration:     args.duration,
		RecordFrames: true,
	}.Run()
	if err != nil {
		return fmt.Errorf("record scenario: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range res.Recording.Frames {
		if err := enc.Encode(&res.Recording.Frames[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "adassure-load: streaming %d frames x %d sessions (%d in flight)\n",
		len(res.Recording.Frames), args.sessions, args.concurrency)
	report, err := service.RunStreamLoad(ctx, client, buf.Bytes(), service.StreamLoadOptions{
		Sessions:    args.sessions,
		Concurrency: args.concurrency,
		Heartbeat:   args.heartbeat,
		Obs:         reg,
	})
	if err != nil {
		return err
	}
	report.Print(stdout)
	return nil
}

func writeMetricsIfAsked(reg *obs.Registry, path string, stdout *os.File) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write metrics: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "metrics written to %s\n", path)
	return nil
}
