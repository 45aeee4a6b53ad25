// Package jobs is the asynchronous job tier of the serving stack: a
// bounded queue of scenario-execution jobs with explicit lifecycle
// states, per-job cancellation, retry of transient failures, a typed
// event log per job (streamed as NDJSON by the service layer, the same
// framing the streaming monitor events use) and bounded retention of
// finished jobs for polling.
//
// The manager is execution-agnostic: it owns states, queueing, events
// and retention, while the configured Exec hook does the work — the
// service runs each job through its keyed cache → store → single-flight
// → pool pipeline. An Exec error wrapping ErrRetryable (local pool
// backpressure) is retried; every other error fails the job.
//
// Lifecycle:
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed      (Exec error, retries exhausted)
//	   └──────────┴──────▶ cancelled   (DELETE /v1/jobs/{id})
//
// Admission never blocks: Submit either enqueues or fails immediately
// with ErrQueueFull, mirroring the simulation pool's backpressure
// contract so the HTTP layer can answer 429 + Retry-After.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"adassure/internal/obs"
)

// State is one of the five job lifecycle states.
type State string

// The job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed is returned by Submit after Close started.
var ErrClosed = errors.New("jobs: manager closed")

// ErrNotFound is returned for an unknown (or expired-from-retention)
// job ID.
var ErrNotFound = errors.New("jobs: unknown job")

// ErrRetryable marks a transient Exec failure: an error wrapping it
// (errors.Is) earns another attempt, up to Config.Attempts.
var ErrRetryable = errors.New("jobs: retryable")

// Result is the outcome an Exec hook reports for a finished job.
type Result struct {
	// Body is the response document, byte-identical to what the
	// synchronous execution path would have produced.
	Body []byte
	// Status is the HTTP status the body corresponds to.
	Status int
	// Cache is the cache disposition of the execution ("hit", "miss",
	// "coalesced", "store", or empty when not applicable).
	Cache string
}

// Event is one entry of a job's event log, streamed as NDJSON from
// GET /v1/jobs/{id}/events. Seq numbers events from 1 per job.
type Event struct {
	Seq     int64  `json:"seq"`
	Kind    string `json:"event"`
	State   State  `json:"state"`
	Attempt int    `json:"attempt,omitempty"`
	Detail  string `json:"detail,omitempty"`
	// ElapsedMS is milliseconds since the job was submitted.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// Event kinds.
const (
	EventQueued    = "queued"
	EventStarted   = "started"
	EventRetrying  = "retrying"
	EventDone      = "done"
	EventFailed    = "failed"
	EventCancelled = "cancelled"
)

// Job is one asynchronous execution. All exported accessors are safe
// for concurrent use; the struct's fields are owned by the manager.
type Job struct {
	// ID is the 32-hex-char job handle (not content-addressed: two
	// submissions of the same request are two jobs, likely one cache hit).
	ID string
	// Key is the content address of the canonical request the job runs.
	Key string
	// Payload is the canonical request, opaque to the manager.
	Payload any
	// TraceID correlates the job with the submitting request's trace.
	TraceID string

	created time.Time

	mu       sync.Mutex
	state    State
	attempts int
	result   Result
	errMsg   string
	events   []Event
	// notify is closed and replaced on every event append, so followers
	// can wait for "something changed" without polling.
	notify chan struct{}

	cancelled atomic.Bool
	runCtx    context.Context
	cancel    context.CancelFunc
}

// newID returns a 32-hex-char random job handle.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: read random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot is the poll view of a job (the GET /v1/jobs/{id} body).
type Snapshot struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Key      string `json:"key"`
	TraceID  string `json:"trace_id,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	// Cache/Status are set once the job is done.
	Cache  string `json:"cache,omitempty"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Events is the number of events recorded so far.
	Events int64 `json:"events"`
}

// Snapshot returns the job's poll view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := Snapshot{
		ID:       j.ID,
		State:    j.state,
		Key:      j.Key,
		TraceID:  j.TraceID,
		Attempts: j.attempts,
		Error:    j.errMsg,
		Events:   int64(len(j.events)),
	}
	if j.state == StateDone || j.state == StateFailed {
		snap.Cache = j.result.Cache
		snap.Status = j.result.Status
	}
	return snap
}

// ResultIfDone returns the job's result once the job is terminal with a
// body (done, or failed with an error document). ok is false while the
// job is still queued or running, and for cancelled jobs.
func (j *Job) ResultIfDone() (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if (j.state == StateDone || j.state == StateFailed) && j.result.Status != 0 {
		return j.result, true
	}
	return Result{}, false
}

// EventsSince returns the recorded events after seq, plus a channel that
// is closed when another event arrives (nil when the job is terminal —
// nothing further will arrive).
func (j *Job) EventsSince(seq int64) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, e := range j.events {
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	if j.state.Terminal() {
		return out, nil
	}
	return out, j.notify
}

// appendEvent records one event and wakes followers. Caller holds j.mu.
func (j *Job) appendEventLocked(kind string, attempt int, detail string) {
	j.events = append(j.events, Event{
		Seq:       int64(len(j.events) + 1),
		Kind:      kind,
		State:     j.state,
		Attempt:   attempt,
		Detail:    detail,
		ElapsedMS: time.Since(j.created).Milliseconds(),
	})
	close(j.notify)
	j.notify = make(chan struct{})
}

// Config tunes a Manager.
type Config struct {
	// Workers is the number of dispatcher goroutines executing jobs
	// (default 2). In the standalone service each dispatcher occupies one
	// simulation-pool slot while its job runs, so Workers ≤ pool workers
	// keeps synchronous traffic from being starved.
	Workers int
	// QueueDepth bounds jobs admitted but not yet dispatched
	// (default 8×Workers). A full queue rejects Submit with ErrQueueFull.
	QueueDepth int
	// Retention bounds finished jobs kept for polling (default 256);
	// beyond it the oldest finished jobs are forgotten FIFO. Queued and
	// running jobs are never dropped.
	Retention int
	// Attempts is the execution budget per job when Exec fails with an
	// error wrapping ErrRetryable (default 3).
	Attempts int
	// RetryDelay is the base backoff between attempts, doubled each retry
	// (default 100ms).
	RetryDelay time.Duration
	// Exec performs one execution attempt. Required. Wrap ErrRetryable
	// into the returned error to ask for another attempt.
	Exec func(ctx context.Context, job *Job) (Result, error)
	// Obs receives jobs.submitted/done/failed/cancelled/retries counters
	// and the jobs.queued/running gauges. Nil-safe.
	Obs *obs.Registry
	// Logger receives one record per terminal job. Nil discards.
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Workers
	}
	if c.Retention <= 0 {
		c.Retention = 256
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 100 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Manager owns the job queue, lifecycle and retention.
type Manager struct {
	cfg   Config
	queue chan *Job
	wg    sync.WaitGroup

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // FIFO of terminal job IDs for retention eviction
	closed   bool

	submitted *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	retries   *obs.Counter
	rejected  *obs.Counter
	queuedGau *obs.Gauge
	runGau    *obs.Gauge
	running   atomic.Int64
}

// NewManager starts the dispatchers and returns the manager.
func NewManager(cfg Config) *Manager {
	cfg.defaults()
	if cfg.Exec == nil {
		panic("jobs: Config.Exec is required")
	}
	m := &Manager{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  map[string]*Job{},

		submitted: cfg.Obs.Counter("jobs.submitted"),
		done:      cfg.Obs.Counter("jobs.done"),
		failed:    cfg.Obs.Counter("jobs.failed"),
		cancelled: cfg.Obs.Counter("jobs.cancelled"),
		retries:   cfg.Obs.Counter("jobs.retries"),
		rejected:  cfg.Obs.Counter("jobs.rejected"),
		queuedGau: cfg.Obs.Gauge("jobs.queued"),
		runGau:    cfg.Obs.Gauge("jobs.running"),
	}
	m.baseCtx, m.cancel = context.WithCancel(context.Background())
	m.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go m.dispatch()
	}
	return m
}

// QueueLen reports jobs admitted but not yet dispatched.
func (m *Manager) QueueLen() int { return len(m.queue) }

// Workers reports the dispatcher count.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Retention reports how many finished jobs are kept for polling.
func (m *Manager) Retention() int { return m.cfg.Retention }

// QueueCap reports the admission-queue capacity.
func (m *Manager) QueueCap() int { return cap(m.queue) }

// Running reports jobs currently executing.
func (m *Manager) Running() int { return int(m.running.Load()) }

// Submit admits one job. payload is the canonical request (opaque to
// the manager), key its content address, traceID the submitting
// request's trace (may be empty).
func (m *Manager) Submit(payload any, key, traceID string) (*Job, error) {
	j := &Job{
		ID:      newID(),
		Key:     key,
		Payload: payload,
		TraceID: traceID,
		created: time.Now(),
		state:   StateQueued,
		notify:  make(chan struct{}),
	}
	j.runCtx, j.cancel = context.WithCancel(m.baseCtx)
	j.mu.Lock()
	j.appendEventLocked(EventQueued, 0, "")
	j.mu.Unlock()

	// The non-blocking send happens under mu so Close cannot close the
	// queue between the closed check and the send.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.cancel()
		return nil, ErrClosed
	}
	select {
	case m.queue <- j:
		m.jobs[j.ID] = j
		m.mu.Unlock()
		m.submitted.Inc()
		m.queuedGau.Set(float64(len(m.queue)))
		return j, nil
	default:
		m.mu.Unlock()
		j.cancel()
		m.rejected.Inc()
		return nil, ErrQueueFull
	}
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Queued jobs transition to
// cancelled immediately (the dispatcher skips them); running jobs have
// their context cancelled and transition when Exec returns. Terminal
// jobs are unaffected (ok reports whether a cancellation was applied).
func (m *Manager) Cancel(id string) (snap Snapshot, ok bool, err error) {
	m.mu.Lock()
	j, found := m.jobs[id]
	m.mu.Unlock()
	if !found {
		return Snapshot{}, false, ErrNotFound
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.cancelled.Store(true)
		j.state = StateCancelled
		j.appendEventLocked(EventCancelled, j.attempts, "cancelled while queued")
		j.mu.Unlock()
		j.cancel()
		m.cancelled.Inc()
		m.retire(j)
		return j.Snapshot(), true, nil
	case StateRunning:
		j.cancelled.Store(true)
		j.mu.Unlock()
		j.cancel() // Exec observes ctx.Done and returns; dispatcher finishes the state
		return j.Snapshot(), true, nil
	default:
		j.mu.Unlock()
		return j.Snapshot(), false, nil
	}
}

// retire moves a terminal job into the retention FIFO, evicting the
// oldest finished jobs beyond the retention bound.
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, j.ID)
	for len(m.finished) > m.cfg.Retention {
		victim := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, victim)
	}
}

// dispatch is one worker loop: pop, run (with retries), finish.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for j := range m.queue {
		m.queuedGau.Set(float64(len(m.queue)))
		m.runJob(j)
	}
}

// runJob executes one job through its attempt budget.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.appendEventLocked(EventStarted, 1, "")
	ctx := j.runCtx
	j.mu.Unlock()

	m.running.Add(1)
	m.runGau.Set(float64(m.running.Load()))
	defer func() {
		m.running.Add(-1)
		m.runGau.Set(float64(m.running.Load()))
	}()

	delay := m.cfg.RetryDelay
	var res Result
	var err error
	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		j.mu.Unlock()
		res, err = m.cfg.Exec(ctx, j)
		if err == nil || ctx.Err() != nil || attempt >= m.cfg.Attempts ||
			!errors.Is(err, ErrRetryable) {
			break
		}
		m.retries.Inc()
		j.mu.Lock()
		j.appendEventLocked(EventRetrying, attempt, err.Error())
		j.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		delay *= 2
	}

	j.mu.Lock()
	switch {
	case j.cancelled.Load() || (err != nil && errors.Is(err, context.Canceled)):
		j.state = StateCancelled
		if err != nil {
			j.errMsg = err.Error()
		} else {
			j.errMsg = "cancelled"
		}
		j.appendEventLocked(EventCancelled, j.attempts, j.errMsg)
		m.cancelled.Inc()
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.result = res // may carry an error body + status from the exec layer
		j.appendEventLocked(EventFailed, j.attempts, j.errMsg)
		m.failed.Inc()
	default:
		j.state = StateDone
		j.result = res
		j.appendEventLocked(EventDone, j.attempts, res.Cache)
		m.done.Inc()
	}
	state, attempts := j.state, j.attempts
	j.mu.Unlock()
	j.cancel()
	m.retire(j)
	m.cfg.Logger.Info("job finished",
		slog.String("job_id", j.ID),
		slog.String("state", string(state)),
		slog.Int("attempts", attempts),
		slog.String("trace_id", j.TraceID),
	)
}

// Close stops admission, waits for dispatched jobs to finish executing
// (queued jobs still run — the queue is drained, mirroring the
// simulation pool's contract), or cancels everything when ctx expires.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.cancel()
		return nil
	case <-ctx.Done():
		m.cancel() // abort running Execs
		<-done
		return ctx.Err()
	}
}
