// Package runner is the scenario-execution engine of the experiment
// harness: a worker pool that fans a grid of independent jobs — one
// (track × controller × attack × seed) simulation each — across
// GOMAXPROCS goroutines while keeping the result stream deterministic.
//
// The contract every consumer relies on:
//
//   - Results are index-ordered: results[i] is the output of jobs[i]
//     regardless of the worker count or of the order in which workers
//     happened to finish. A deterministic job function therefore yields
//     byte-identical downstream output for any Workers value, including 1.
//   - A job that panics does not kill the campaign: the panic is
//     recovered and converted into a *JobError carrying the job index and
//     a stack excerpt.
//   - The first failure cancels the run: jobs not yet started are skipped
//     and the pool drains. The returned error is always the failure with
//     the lowest job index, so the reported error is stable across worker
//     counts whenever a single job is at fault.
//   - Cancelling Options.Context stops dispatch; the pool returns a
//     *JobError wrapping the context error.
//
// The pool is deliberately minimal — no shared queues or batching layers;
// dispatch is a single atomic counter, which benchmarks faster than a
// channel feed for the coarse-grained (tens of milliseconds to seconds)
// jobs the harness runs.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// Options configures one pool run.
type Options struct {
	// Workers is the goroutine count (default runtime.GOMAXPROCS(0)).
	// Workers=1 reproduces the sequential path exactly.
	Workers int
	// Context cancels the run early when done (default context.Background()).
	Context context.Context
	// Obs, when non-nil, receives pool metrics: runner.jobs_completed and
	// runner.jobs_failed counters, a runner.job_ns histogram of per-job
	// wall time, and runner.queue_wait_ns — how long each job sat queued
	// before a worker picked it up (dispatch time minus pool start). The
	// registry is shared safely across workers.
	Obs *obs.Registry
	// Events, when non-nil, receives one wall-clock span per job on track
	// "runner/worker-<w>" — one timeline lane per pool worker, failed jobs
	// flagged with failed=1. The recorder is shared safely across workers;
	// nil adds nothing to the dispatch path.
	Events *events.Recorder
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
}

// JobError is the failure of one job in the grid.
type JobError struct {
	// Index is the position of the failed job in the input slice.
	Index int
	// Err is the job's own error, the recovered panic, or the context
	// error for jobs skipped after cancellation.
	Err error
	// Panicked marks errors recovered from a panicking job.
	Panicked bool
}

// Error implements error.
func (e *JobError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("runner: job %d panicked: %v", e.Index, e.Err)
	}
	return fmt.Sprintf("runner: job %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Map executes fn once per job across the worker pool and returns the
// outputs index-ordered. On failure it returns the lowest-indexed
// *JobError together with the partial results (failed or skipped slots
// hold the zero value of O).
func Map[I, O any](opts Options, jobs []I, fn func(ctx context.Context, index int, job I) (O, error)) ([]O, error) {
	return Run(opts, len(jobs), func(ctx context.Context, i int) (O, error) {
		return fn(ctx, i, jobs[i])
	})
}

// Run is the index-only variant of Map: it executes fn for every index in
// [0, n) across the pool. Use it when the job inputs live in closure
// scope rather than a slice.
func Run[O any](opts Options, n int, fn func(ctx context.Context, index int) (O, error)) ([]O, error) {
	opts.defaults()
	results := make([]O, n)
	errs := make([]*JobError, n)
	if n == 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(opts.Context)
	defer cancel()

	// Pool metrics: handles resolved once; nil registry → nil handles →
	// every record below is a single-branch no-op and the clock is never
	// read.
	var (
		completed = opts.Obs.Counter("runner.jobs_completed")
		failed    = opts.Obs.Counter("runner.jobs_failed")
		jobNS     = opts.Obs.Histogram("runner.job_ns")
		queueNS   = opts.Obs.Histogram("runner.queue_wait_ns")
		poolStart time.Time
	)
	if opts.Obs != nil {
		poolStart = time.Now()
	}

	var (
		next int64 = -1 // atomic dispatch cursor
		wg   sync.WaitGroup
	)

	runOne := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &JobError{
					Index:    i,
					Err:      fmt.Errorf("%v\n%s", r, trimStack(debug.Stack())),
					Panicked: true,
				}
			}
		}()
		out, err := fn(ctx, i)
		if err != nil {
			return &JobError{Index: i, Err: err}
		}
		results[i] = out
		return nil
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var workerTrack string
			if opts.Events != nil {
				workerTrack = fmt.Sprintf("runner/worker-%d", w)
			}
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = &JobError{Index: i, Err: err}
					continue
				}
				var jobStart time.Time
				if opts.Obs != nil {
					jobStart = time.Now()
					queueNS.Observe(jobStart.Sub(poolStart).Nanoseconds())
				}
				if opts.Events != nil {
					opts.Events.Begin(events.CatRunner, workerTrack,
						fmt.Sprintf("job %d", i), events.NoSimTime, nil)
				}
				err := runOne(i)
				if opts.Obs != nil {
					jobNS.Observe(time.Since(jobStart).Nanoseconds())
				}
				if opts.Events != nil {
					var attrs map[string]float64
					if err != nil {
						attrs = map[string]float64{"failed": 1}
					}
					opts.Events.End(events.CatRunner, workerTrack,
						fmt.Sprintf("job %d", i), events.NoSimTime, attrs)
				}
				if err != nil {
					failed.Inc()
					errs[i] = err.(*JobError)
					cancel()
					continue
				}
				completed.Inc()
			}
		}(w)
	}
	wg.Wait()

	for _, e := range errs {
		if e != nil {
			return results, e
		}
	}
	return results, nil
}

// trimStack cuts a debug.Stack dump down to a handful of frames so a
// JobError stays readable inside a rendered campaign report.
func trimStack(stack []byte) []byte {
	const maxLen = 1024
	if len(stack) > maxLen {
		return append(stack[:maxLen:maxLen], []byte("...")...)
	}
	return stack
}
