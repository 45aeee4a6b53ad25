// Command adassure-server exposes the ADAssure scenario-execution engine
// over HTTP/JSON on one machine. Clients POST scenario requests (attack
// class, window, seed, assertion-catalog selection) to /v1/run and
// receive the full evidence chain: run summary, violation record, ranked
// diagnosis hypotheses and — on request — per-episode forensic bundles.
// Mutation campaigns (/v1/mutate) and adversarial searches (/v1/search)
// are served the same way.
//
// Because every run, campaign and search is deterministic in its
// canonicalized request, all three share one keyed pipeline in front of
// the worker pool: a content-addressed result cache (canonical request
// hash → response bytes, LRU bounded by -cache-bytes), the optional
// persistent store (-store-dir), and single-flight coalescing, so
// repeated or concurrent identical requests cost exactly one execution.
// When the bounded admission queue is full the server sheds load with
// 429 + Retry-After instead of queueing unboundedly.
//
// Usage:
//
//	adassure-server [-addr :8080] [-workers N] [-queue N]
//	    [-cache-bytes 67108864] [-timeout 60s] [-max-duration 600]
//	    [-retry-after 1s] [-pprof] [-metrics out.json]
//	    [-stream-hz 2000] [-stream-session 5m] [-stream-error-budget 0]
//	    [-log-format text|json] [-trace-store 256] [-readiness-grace 0s]
//	    [-store-dir DIR] [-store-bytes N]
//	    [-jobs-workers 2] [-jobs-queue 16] [-jobs-retention 256] [-no-jobs]
//
// POST /v1/jobs runs a scenario asynchronously: it returns 202 + a job
// id; poll GET /v1/jobs/{id}, stream NDJSON progress from
// /v1/jobs/{id}/events, fetch bytes (identical to /v1/run's) from
// /v1/jobs/{id}/result, cancel with DELETE.
//
// -store-dir enables the persistent result store (append-only CRC-checked
// segments): cache misses fall through to it before executing, and every
// fresh result is appended, so cached evidence survives restarts.
//
// All resource limits are validated together at boot — nonsense
// combinations (a cache cap that cannot hold one response, -store-bytes
// without -store-dir, a job tier wider than 4x the simulation pool) are
// rejected with one error listing every violation, and the resolved
// values are logged as a single "limits" record.
//
// POST /v1/stream serves online monitoring: chunked NDJSON frames in,
// NDJSON events out over one full-duplex exchange, with per-session
// limits on frame rate (-stream-hz), wall-clock lifetime
// (-stream-session) and malformed-line tolerance (-stream-error-budget;
// 0 = default of 10, negative = none).
//
// Observability: every /v1/* request is traced end to end (W3C
// traceparent in, X-Adassure-Trace out, spans retrievable from
// /debug/traces/{id}; -trace-store bounds the in-memory store, 0
// disables tracing). /metrics serves the Prometheus text exposition with
// trace-ID exemplars; /metrics.json keeps the JSON snapshot. One
// structured log record per request — -log-format picks text or JSON —
// carries the same trace_id for correlation.
//
// Endpoints: POST /v1/run, POST /v1/stream, POST /v1/mutate,
// POST /v1/search, /v1/jobs[/{id}[/result|/events]], GET /v1/catalog, GET /healthz, GET /readyz, GET /metrics,
// GET /metrics.json, GET /debug/buildinfo, GET /debug/traces[/{id}], and
// GET /debug/pprof (with -pprof). SIGINT/SIGTERM trigger a graceful
// shutdown: /readyz flips to 503 immediately, -readiness-grace gives
// load balancers time to observe it, then the listener stops accepting,
// in-flight simulations drain and open streaming sessions are closed
// with a drain event (up to -drain-timeout), and with -metrics a final
// registry snapshot is written on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adassure/internal/obs"
	"adassure/internal/service"
	"adassure/internal/store"
	"adassure/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "adassure-server:", err)
		os.Exit(1)
	}
}

// run is main minus process exit, so tests can drive the full lifecycle.
func run(argv []string, stdout, stderr *os.File) error {
	fs := flag.NewFlagSet("adassure-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "simulation workers (default GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "admission queue depth (default 2x workers)")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "result cache cap in bytes (negative disables)")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request simulation budget")
		maxDuration  = fs.Float64("max-duration", 600, "max simulated seconds per request (negative disables)")
		retryAfter   = fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		pprofOn      = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof")
		metricsPath  = fs.String("metrics", "", "write a final metrics snapshot to this file on shutdown")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight runs on shutdown")
		streamHz     = fs.Float64("stream-hz", 0, "per-stream-session frame rate cap (default 2000, negative disables)")
		streamSess   = fs.Duration("stream-session", 0, "per-stream-session wall-clock cap (default 5m, negative disables)")
		streamBudget = fs.Int("stream-error-budget", 0, "malformed NDJSON lines tolerated per stream session (default 10, negative = none)")
		streamBeat   = fs.Int("stream-heartbeat", 0, "default stream heartbeat cadence in frames (default 200, negative = off)")
		logFormat    = fs.String("log-format", "text", "structured log format: text or json (stderr)")
		traceStore   = fs.Int("trace-store", 256, "completed traces retained for /debug/traces (0 disables tracing)")
		readyGrace   = fs.Duration("readiness-grace", 0, "after /readyz flips to 503 on shutdown, wait this long before closing the listener")
		storeDir     = fs.String("store-dir", "", "persistent result store directory (empty disables)")
		storeBytes   = fs.Int64("store-bytes", 0, "persistent store cap in bytes (default 256 MiB)")
		jobsWorkers  = fs.Int("jobs-workers", 0, "async job dispatchers (default 2)")
		jobsQueue    = fs.Int("jobs-queue", 0, "async job queue depth (default 8x job workers)")
		jobsKeep     = fs.Int("jobs-retention", 0, "finished jobs retained for polling (default 256)")
		noJobs       = fs.Bool("no-jobs", false, "disable the /v1/jobs endpoints")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}

	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	default:
		return fmt.Errorf("-log-format must be text or json, got %q", *logFormat)
	}
	var tracer *telemetry.Tracer
	if *traceStore > 0 {
		tracer = telemetry.New(telemetry.Config{MaxTraces: *traceStore})
	}

	// The combined limits validation: every violation is reported at
	// once, and the resolved envelope is logged as one "limits" record
	// before anything starts.
	limits := service.Limits{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheBytes:   *cacheBytes,
		Timeout:      *timeout,
		MaxDuration:  *maxDuration,
		StoreDir:     *storeDir,
		StoreBytes:   *storeBytes,
		JobWorkers:   *jobsWorkers,
		JobQueue:     *jobsQueue,
		JobRetention: *jobsKeep,
	}
	if err := limits.Validate(); err != nil {
		return fmt.Errorf("invalid limits:\n%w", err)
	}
	limits.LogSummary(logger)

	reg := obs.NewRegistry()
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeBytes, Obs: reg})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		logger.Info("store opened",
			slog.String("dir", *storeDir),
			slog.Int("entries", st.Len()),
			slog.Int64("bytes", st.SizeBytes()),
		)
	}
	svc := service.New(service.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheBytes:  *cacheBytes,
		Timeout:     *timeout,
		MaxDuration: *maxDuration,
		RetryAfter:  *retryAfter,
		Obs:         reg,
		Tracer:      tracer,
		Logger:      logger,
		EnablePprof: *pprofOn,
		Store:       st,
		Jobs: service.JobsLimits{
			Workers:    *jobsWorkers,
			QueueDepth: *jobsQueue,
			Retention:  *jobsKeep,
			Disable:    *noJobs,
		},
		Stream: service.StreamLimits{
			MaxFrameHz:         *streamHz,
			MaxSessionDuration: *streamSess,
			ErrorBudget:        *streamBudget,
			Heartbeat:          *streamBeat,
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "adassure-server listening on http://%s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "adassure-server: %s, draining (up to %s)\n", sig, *drainTimeout)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	// Shutdown order: flip readiness first so load balancers stop routing
	// new traffic (with -readiness-grace to let them observe the 503),
	// then stop accepting, then drain the simulation pool so every
	// admitted request still gets its response.
	svc.BeginDrain()
	if *readyGrace > 0 {
		time.Sleep(*readyGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "adassure-server: http shutdown:", err)
	}
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintln(stderr, "adassure-server: drain:", err)
	}
	if *metricsPath != "" {
		if err := writeMetrics(reg, *metricsPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsPath)
	}
	return nil
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write metrics: %w", err)
	}
	return f.Close()
}
