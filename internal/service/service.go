// Package service is the scenario-execution service of the repo: an
// HTTP/JSON layer that accepts scenario requests (attack class,
// parameters, seed, assertion-catalog selection), executes them on a
// bounded persistent worker pool (internal/runner.Pool) and returns the
// full evidence chain — run summary, violations, ranked diagnosis
// hypotheses and optional forensic bundles.
//
// Because every run, campaign and search is deterministic in its
// canonicalized request, the three keyed kinds (/v1/run, /v1/mutate,
// /v1/search) share one pipeline (pipeline.go): a content-addressed
// result cache (canonical request hash → marshalled response, LRU bounded
// by bytes), the optional persistent store behind it, and single-flight
// coalescing, so K concurrent identical requests cost exactly one
// execution and all receive byte-identical bodies. The admission queue
// applies backpressure: when it is full the service answers 429 with a
// Retry-After hint instead of blocking or queueing unboundedly.
//
// Any keyed request may be submitted asynchronously with the RFC 7240
// header Prefer: respond-async: the answer is 202 with Location:
// /v1/results/{key} once the work is started, and the content key is the
// handle, so a result stays pollable for as long as the cache or the
// store holds it — across restarts with a store.
//
// Endpoints:
//
//	POST /v1/run            execute (or serve from cache) one scenario
//	POST /v1/stream         online monitoring: NDJSON frames in, NDJSON events out
//	POST /v1/mutate         execute (or serve from cache) one mutation campaign
//	POST /v1/search         execute (or serve from cache) one adversarial search
//	GET  /v1/results/{key}  poll an async submission: 200 body, 202 in flight, 404 not kept
//	GET  /v1/catalog        enumerate tracks, controllers, attacks, assertions, mutants
//	GET  /healthz           liveness only (process up and answering)
//	GET  /readyz            readiness: queue saturation + drain state (503 while draining)
//	GET  /metrics           Prometheus/OpenMetrics text exposition of the obs registry
//	GET  /debug/buildinfo   module path, Go version and VCS stamp of the binary
//	GET  /debug/traces      trace IDs currently held by the in-process trace store
//	GET  /debug/traces/{id} one trace's spans as adassure/spans/v1 JSON
//	GET  /debug/pprof       net/http/pprof (when Config.EnablePprof)
//
// The X-Adassure-Cache response header reports how a keyed body was
// produced: "miss" (fresh execution), "hit" (served from cache), "store"
// (served from the persistent store) or "coalesced" (attached to a
// concurrent identical run); on a 202 it reports how the submission was
// resolved.
//
// Every /v1/* request is traced: the handler continues an inbound W3C
// traceparent (or starts a fresh trace), children cover the cache lookup,
// queue wait and execution phases, and the X-Adassure-Trace response
// header names the trace so it can be fetched from /debug/traces/{id} and
// matched against slog output and histogram exemplars.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"adassure"
	"adassure/internal/obs"
	"adassure/internal/runner"
	"adassure/internal/sim"
	"adassure/internal/store"
	"adassure/internal/telemetry"
)

// CacheHeader is the response header reporting cache disposition.
const CacheHeader = "X-Adassure-Cache"

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the simulation pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (default 2×Workers). A full
	// queue answers 429 + Retry-After.
	QueueDepth int
	// CacheBytes caps the result cache (default 64 MiB; negative
	// disables caching).
	CacheBytes int64
	// Timeout is the per-request simulation budget, enforced end to end
	// down to the simulator step loop (default 60s).
	Timeout time.Duration
	// MaxDuration caps the simulated seconds one request may ask for
	// (default 600; negative disables the cap).
	MaxDuration float64
	// RetryAfter is the hint returned with 429 responses (default 1s,
	// rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Obs, when non-nil, is the registry everything reports into —
	// service counters, cache counters, pool metrics and per-run
	// sim/monitor metrics. Nil builds a private registry (exposed via
	// Registry and /metrics either way).
	Obs *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof on the
	// service mux.
	EnablePprof bool
	// Stream bounds /v1/stream sessions (zero value = defaults).
	Stream StreamLimits
	// Store, when non-nil, is the persistent result store backing the
	// in-memory LRU: cache misses fall through to it before simulating,
	// and every fresh result is appended to it, so cached evidence
	// survives restarts. The server owns Close-ing it.
	Store *store.Store
	// StoreDir and StoreBytes are the directory and byte cap Store was
	// opened with, for Validate to check ("" and 0 without a store).
	StoreDir   string
	StoreBytes int64
	// Tracer, when non-nil, records a span tree per request and serves it
	// under /debug/traces. Nil disables tracing: every span operation is a
	// single-branch no-op and /debug/traces answers an empty list.
	Tracer *telemetry.Tracer
	// Logger receives one structured record per request (plus stream
	// session and pool lifecycle events), each carrying trace_id/span_id.
	// Nil discards.
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 600
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	c.Stream.defaults()
}

// Server executes scenario requests. Build with New, mount Handler, and
// Close on shutdown to drain in-flight simulations.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	pool   *runner.Pool
	cache  *resultCache
	flight *flightGroup
	store  *store.Store
	mux    *http.ServeMux

	tracer *telemetry.Tracer
	log    *slog.Logger

	baseCtx    context.Context
	cancelBase context.CancelFunc
	closed     atomic.Bool
	draining   atomic.Bool

	// Streaming sessions get their own cancellation so Close can drain
	// them (each delivers its session-closed event) independently of the
	// batch pool, and a WaitGroup so Close can wait for the drain.
	streamCtx     context.Context
	cancelStreams context.CancelFunc
	streamWG      sync.WaitGroup

	requests  *obs.Counter
	reqNS     *obs.Histogram
	runNS     *obs.Histogram
	coalesced *obs.Counter
	shedded   *obs.Counter
	timeouts  *obs.Counter
	simErrors *obs.Counter
	badReqs   *obs.Counter

	streamSessions *obs.Counter
}

// New builds and starts a server (its worker pool runs immediately).
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Obs,
		cache:  newResultCache(cfg.CacheBytes, cfg.Obs),
		flight: newFlightGroup(),
		tracer: cfg.Tracer,
		log:    cfg.Logger,

		requests:  cfg.Obs.Counter("service.requests"),
		reqNS:     cfg.Obs.Histogram("service.request_ns"),
		runNS:     cfg.Obs.Histogram("service.run_ns"),
		coalesced: cfg.Obs.Counter("service.cache.coalesced"),
		shedded:   cfg.Obs.Counter("service.queue_full"),
		timeouts:  cfg.Obs.Counter("service.timeouts"),
		simErrors: cfg.Obs.Counter("service.sim_errors"),
		badReqs:   cfg.Obs.Counter("service.bad_requests"),

		streamSessions: cfg.Obs.Counter("service.stream.sessions"),
	}
	// A fresh server's /metrics reads sim_runs_total 0, not no series.
	sim.Counters(cfg.Obs)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.streamCtx, s.cancelStreams = context.WithCancel(context.Background())
	s.store = cfg.Store
	s.pool = runner.NewPool(runner.PoolOptions{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Obs:        cfg.Obs,
		Logger:     cfg.Logger,
	})

	s.logLimits()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.traced("/v1/run", handleKeyed[Request](s)))
	mux.HandleFunc("POST /v1/stream", s.traced("/v1/stream", s.handleStream))
	mux.HandleFunc("POST /v1/mutate", s.traced("/v1/mutate", handleKeyed[MutateRequest](s)))
	mux.HandleFunc("POST /v1/search", s.traced("/v1/search", handleKeyed[SearchRequest](s)))
	mux.HandleFunc("GET "+resultsPath+"{key}", s.traced(resultsPath+"{key}", s.handleResult))
	mux.HandleFunc("GET /v1/catalog", s.traced("/v1/catalog", s.handleCatalog))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.reg)
	mux.HandleFunc("GET /debug/buildinfo", s.handleBuildinfo)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("/", s.handleFallback)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// logLimits emits the one boot record of every resource limit as the
// server enforces it: defaults resolved, read back from the pool and the
// store where those resolve their own.
func (s *Server) logLimits() {
	attrs := []slog.Attr{
		slog.Int("workers", s.pool.Workers()),
		slog.Int("queue", s.pool.Cap()),
		slog.Int64("cache_bytes", s.cfg.CacheBytes),
		slog.Duration("timeout", s.cfg.Timeout),
		slog.Float64("max_duration", s.cfg.MaxDuration),
	}
	if s.store != nil {
		attrs = append(attrs,
			slog.String("store_dir", s.store.Dir()),
			slog.Int64("store_bytes", s.store.MaxBytes()))
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "limits", attrs...)
}

// Handler returns the service mux, ready to mount on any http.Server
// (or httptest.Server in tests).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the trace store backing /debug/traces (nil when tracing
// is disabled).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// BeginDrain flips /readyz to 503 without refusing work: admission stays
// open so in-flight and just-arrived requests complete, but load
// balancers watching readiness stop sending new ones. Call it ahead of
// Close to drain gracefully.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.log.Info("drain started")
	}
}

// Close stops admission, drains streaming sessions (each delivers its
// final session-closed event before its handler returns) and drains
// in-flight simulations, async submissions still queued included. If ctx
// expires first, the base context is
// cancelled, which aborts running simulations within one control step;
// Close still waits for the workers to observe the cancellation before
// returning ctx.Err().
func (s *Server) Close(ctx context.Context) error {
	s.closed.Store(true)
	s.cancelStreams()
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		s.streamWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.cancelBase()
	case <-ctx.Done():
		s.cancelBase() // force: abort in-flight simulations
		<-done
		err = ctx.Err()
	}
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// maxBodyBytes bounds a request document; canonical requests are a few
// hundred bytes, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// errorBody renders the uniform JSON error envelope.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return b
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// retryAfterSeconds rounds the configured hint up to whole seconds as the
// Retry-After header requires.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// routeMethods is the allowed-method table behind the JSON fallback. The
// catch-all "/" pattern matches any request no method-specific pattern
// does, so wrong-method calls on real routes land here too; the table lets
// the fallback answer 405 + Allow for those and 404 for unknown paths —
// both with the uniform JSON error envelope instead of the mux's plain
// text.
var routeMethods = map[string]string{
	"/v1/run":          "POST",
	"/v1/stream":       "POST",
	"/v1/mutate":       "POST",
	"/v1/search":       "POST",
	"/v1/catalog":      "GET",
	"/healthz":         "GET",
	"/readyz":          "GET",
	"/metrics":         "GET",
	"/debug/buildinfo": "GET",
	"/debug/traces":    "GET",
}

// handleFallback answers every request no registered route claims.
func (s *Server) handleFallback(w http.ResponseWriter, r *http.Request) {
	s.badReqs.Inc()
	if allow, ok := routeMethods[r.URL.Path]; ok {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody(fmt.Sprintf("method %s not allowed for %s (allow %s)", r.Method, r.URL.Path, allow)))
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody("unknown route "+r.URL.Path))
}

// handleHealthz is pure liveness: the process is up and answering. It
// stays 200 through a drain — use /readyz to steer traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.closed.Load() {
		status = "draining"
	}
	b, _ := json.Marshal(map[string]any{
		"status":    status,
		"queue_len": s.pool.QueueLen(),
		"queue_cap": s.pool.Cap(),
	})
	writeJSON(w, http.StatusOK, b)
}

// handleReadyz is the traffic-steering probe: 503 once BeginDrain or
// Close has been called, or while the admission queue is saturated (a new
// run would be shed with 429 anyway). The body always reports the reason
// and occupancy of the simulation queue, so load balancers and operators
// steer off the same signal.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	qlen, qcap := s.pool.QueueLen(), s.pool.Cap()
	status, code := "ready", http.StatusOK
	switch {
	case s.closed.Load() || s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case qlen >= qcap:
		status, code = "saturated", http.StatusServiceUnavailable
	}
	doc := map[string]any{
		"status":    status,
		"queue_len": qlen,
		"queue_cap": qcap,
	}
	if s.store != nil {
		doc["store_entries"] = s.store.Len()
		doc["store_bytes"] = s.store.SizeBytes()
	}
	b, _ := json.Marshal(doc)
	writeJSON(w, code, b)
}

// handleBuildinfo reports what binary is serving: module path, Go
// version and, when the binary was built from a checkout, the VCS stamp.
func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		writeJSON(w, http.StatusServiceUnavailable, errorBody("build info unavailable"))
		return
	}
	vcs := map[string]string{}
	for _, st := range info.Settings {
		switch st.Key {
		case "vcs", "vcs.revision", "vcs.time", "vcs.modified":
			vcs[st.Key] = st.Value
		}
	}
	b, _ := json.Marshal(map[string]any{
		"go_version": info.GoVersion,
		"path":       info.Path,
		"module":     info.Main.Path,
		"version":    info.Main.Version,
		"vcs":        vcs,
	})
	writeJSON(w, http.StatusOK, b)
}

// handleTraces lists the trace IDs the store currently holds, oldest
// first — the index for /debug/traces/{id}.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	ids := s.tracer.TraceIDs()
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = id.String()
	}
	b, _ := json.Marshal(map[string]any{"traces": strs})
	writeJSON(w, http.StatusOK, b)
}

// handleTraceByID serves one trace's span tree as adassure/spans/v1 JSON
// (the format adassure-trace renders and converts to Perfetto).
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, err := telemetry.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody("invalid trace id: "+err.Error()))
		return
	}
	exp, ok := s.tracer.Export(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody("unknown trace "+id.String()))
		return
	}
	b, _ := json.Marshal(exp)
	writeJSON(w, http.StatusOK, b)
}

// handleCatalog enumerates the accepted request vocabulary: the names
// the canonicalizers check, read from the same registries.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	b, _ := json.Marshal(struct {
		adassure.ScenarioNames
		Mutants []string `json:"mutants"`
	}{adassure.Names(), adassure.MutantOps()})
	writeJSON(w, http.StatusOK, b)
}
