package runner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"adassure/internal/obs"
)

// Pool is the serving-side counterpart of Map/Run: a persistent worker
// pool with a bounded admission queue, built for long-running processes
// (the adassure-server) that accept work continuously rather than fanning
// out one finite grid.
//
// The contract:
//
//   - Admission never blocks. TrySubmit either enqueues the job or fails
//     immediately with ErrQueueFull / ErrPoolClosed, so the caller can
//     apply backpressure (HTTP 429 + Retry-After) instead of stacking
//     unbounded goroutines behind a mutex.
//   - Jobs carry their own context. The pool passes the submit-time ctx
//     through untouched; per-request deadlines and cancellations are the
//     caller's to arrange and reach the job unchanged.
//   - Close drains. After Close returns, every admitted job has finished;
//     queued jobs are executed, not dropped. Jobs admitted before Close
//     therefore behave exactly as if the pool were still open.
//   - A panicking job does not kill its worker: the panic is recovered,
//     counted (runner.pool.panics) and reported to the job's OnPanic hook
//     so the submitter can fail its own waiters.
type Pool struct {
	workers int
	queue   chan poolJob
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool

	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	panics    *obs.Counter
	queueGau  *obs.Gauge
	waitNS    *obs.Histogram
	jobNS     *obs.Histogram

	log *slog.Logger
}

type poolJob struct {
	ctx     context.Context
	fn      func(ctx context.Context)
	onPanic func(recovered any)
	at      time.Time
}

// ErrQueueFull is returned by TrySubmit when the admission queue is at
// capacity — the caller should shed load (HTTP 429) rather than wait.
var ErrQueueFull = errors.New("runner: admission queue full")

// ErrPoolClosed is returned by TrySubmit after Close started.
var ErrPoolClosed = errors.New("runner: pool closed")

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Workers is the number of executing goroutines (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (jobs admitted but not yet
	// picked up by a worker; default 2×Workers). Depth 0 is valid after
	// defaulting only through the default path; explicit negative values
	// are clamped to the default.
	QueueDepth int
	// Obs, when non-nil, receives pool metrics: runner.pool.submitted /
	// rejected / completed / panics counters, the runner.pool.queue_depth
	// gauge (sampled at every admission and completion), and the
	// runner.pool.queue_wait_ns and runner.pool.job_ns histograms.
	Obs *obs.Registry
	// Logger, when non-nil, receives pool lifecycle records: one per
	// recovered job panic (error level) and one when Close has drained the
	// queue (info level). Nil discards.
	Logger *slog.Logger
}

// NewPool starts the workers and returns the pool.
func NewPool(opts PoolOptions) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	p := &Pool{
		workers:   opts.Workers,
		queue:     make(chan poolJob, opts.QueueDepth),
		submitted: opts.Obs.Counter("runner.pool.submitted"),
		rejected:  opts.Obs.Counter("runner.pool.rejected"),
		completed: opts.Obs.Counter("runner.pool.completed"),
		panics:    opts.Obs.Counter("runner.pool.panics"),
		queueGau:  opts.Obs.Gauge("runner.pool.queue_depth"),
		waitNS:    opts.Obs.Histogram("runner.pool.queue_wait_ns"),
		jobNS:     opts.Obs.Histogram("runner.pool.job_ns"),
		log:       opts.Logger,
	}
	if p.log == nil {
		p.log = slog.New(slog.DiscardHandler)
	}
	timed := opts.Obs != nil
	p.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go func() {
			defer p.wg.Done()
			for job := range p.queue {
				p.queueGau.Set(float64(len(p.queue)))
				var start time.Time
				if timed {
					start = time.Now()
					p.waitNS.Observe(start.Sub(job.at).Nanoseconds())
				}
				p.runOne(job)
				if timed {
					p.jobNS.Observe(time.Since(start).Nanoseconds())
				}
				p.completed.Inc()
			}
		}()
	}
	return p
}

// runOne executes one job with panic isolation.
func (p *Pool) runOne(job poolJob) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Inc()
			p.log.Error("pool job panicked", slog.Any("recovered", r))
			if job.onPanic != nil {
				job.onPanic(fmt.Errorf("runner: pool job panicked: %v\n%s", r, trimStack(debug.Stack())))
			}
		}
	}()
	job.fn(job.ctx)
}

// TrySubmit admits fn for execution with ctx, without blocking: it
// returns ErrQueueFull when the admission queue is at capacity and
// ErrPoolClosed after Close. onPanic (optional) is invoked with the
// recovered value if fn panics, so the submitter can unblock anyone
// waiting on fn's result.
func (p *Pool) TrySubmit(ctx context.Context, fn func(ctx context.Context), onPanic func(recovered any)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.rejected.Inc()
		return ErrPoolClosed
	}
	select {
	case p.queue <- poolJob{ctx: ctx, fn: fn, onPanic: onPanic, at: time.Now()}:
		p.submitted.Inc()
		p.queueGau.Set(float64(len(p.queue)))
		return nil
	default:
		p.rejected.Inc()
		return ErrQueueFull
	}
}

// QueueLen reports how many admitted jobs are waiting for a worker.
func (p *Pool) QueueLen() int { return len(p.queue) }

// Workers reports the number of executing goroutines.
func (p *Pool) Workers() int { return p.workers }

// Cap reports the admission-queue capacity.
func (p *Pool) Cap() int { return cap(p.queue) }

// Close stops admission, drains the queue and waits for every in-flight
// job to finish. It is idempotent. Jobs that should stop early must be
// cancelled through their own submit-time contexts — Close itself never
// cancels work.
func (p *Pool) Close() {
	p.mu.Lock()
	first := !p.closed
	if first {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
	if first {
		p.log.Info("pool drained",
			slog.Int64("completed", p.completed.Value()),
			slog.Int64("panics", p.panics.Value()))
	}
}
