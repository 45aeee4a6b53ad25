package service

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// LimitError is one rejected resource-limit setting: which knob, the
// value given, and why it is nonsensical. Boot-time validation returns
// every violation joined (errors.Join), so an operator fixes one restart
// worth of mistakes, not one mistake per restart.
type LimitError struct {
	// Field names the limit in flag form, e.g. "-cache-bytes".
	Field string
	// Value is the rejected setting, rendered into the message.
	Value any
	// Reason explains the constraint the value breaks.
	Reason string
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("limit %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Limits is the full resource-limit surface of one server process,
// gathered in one place so boot can validate the combination — not each
// knob in isolation — and log a single summary line of the resolved
// values (the CoreLimits/sanitizeConfig pattern: explicit rejection with
// typed errors instead of silent clamping).
type Limits struct {
	// Workers is the simulation pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = 2×workers).
	QueueDepth int
	// CacheBytes caps the in-memory result cache (negative disables).
	CacheBytes int64
	// Timeout is the per-request simulation budget.
	Timeout time.Duration
	// MaxDuration caps simulated seconds per request (negative disables).
	MaxDuration float64
	// StoreDir roots the persistent result store ("" disables it).
	StoreDir string
	// StoreBytes caps the persistent store (0 = default when StoreDir set).
	StoreBytes int64
	// JobWorkers is the async-job dispatcher count (0 = default 2).
	JobWorkers int
	// JobQueue bounds jobs admitted but not dispatched (0 = 8×JobWorkers).
	JobQueue int
	// JobRetention bounds finished jobs kept for polling (0 = 256).
	JobRetention int
}

// maxWorkers is a sanity ceiling: a simulation worker pins a core, so
// four thousand of them on one box is a typo, not a plan.
const maxWorkers = 4096

// minUsefulCacheBytes is the smallest cache that can hold even one
// clean-run response (~2 KiB); a positive cap below it silently caches
// nothing, which is exactly the misconfiguration validation exists to
// reject.
const minUsefulCacheBytes = 4 << 10

// minUsefulStoreBytes mirrors minUsefulCacheBytes for the persistent
// store, scaled to its segment granularity.
const minUsefulStoreBytes = 1 << 20

// Validate checks every limit and their combinations, returning all
// violations joined. A nil error means the combination is serveable.
func (l Limits) Validate() error {
	var errs []error
	bad := func(field string, value any, reason string) {
		errs = append(errs, &LimitError{Field: field, Value: value, Reason: reason})
	}
	if l.Workers < 0 {
		bad("-workers", l.Workers, "must be >= 0 (0 = GOMAXPROCS)")
	}
	if l.Workers > maxWorkers {
		bad("-workers", l.Workers, fmt.Sprintf("must be <= %d", maxWorkers))
	}
	if l.QueueDepth < 0 {
		bad("-queue", l.QueueDepth, "must be >= 0 (0 = 2x workers)")
	}
	if l.CacheBytes > 0 && l.CacheBytes < minUsefulCacheBytes {
		bad("-cache-bytes", l.CacheBytes,
			fmt.Sprintf("positive cap below %d bytes cannot hold one response; use a negative value to disable caching explicitly", minUsefulCacheBytes))
	}
	if l.Timeout < 0 {
		bad("-timeout", l.Timeout, "must be >= 0 (0 = default 60s)")
	}
	if !finite(l.MaxDuration) {
		// A NaN or infinite cap fails every "d > cap" test, which would
		// silently switch the cap off; disabling it is spelled negative.
		bad("-max-duration", l.MaxDuration, "must be finite (negative disables the cap)")
	}
	if l.StoreDir == "" && l.StoreBytes != 0 {
		bad("-store-bytes", l.StoreBytes, "set without -store-dir; the persistent store needs a directory")
	}
	if l.StoreDir != "" {
		if l.StoreBytes < 0 {
			bad("-store-bytes", l.StoreBytes, "must be >= 0 (0 = default 256 MiB)")
		} else if l.StoreBytes > 0 && l.StoreBytes < minUsefulStoreBytes {
			bad("-store-bytes", l.StoreBytes, fmt.Sprintf("must be >= %d bytes (one segment)", minUsefulStoreBytes))
		}
		if err := checkStoreDir(l.StoreDir); err != nil {
			bad("-store-dir", l.StoreDir, err.Error())
		}
	}
	if l.JobWorkers < 0 {
		bad("-jobs-workers", l.JobWorkers, "must be >= 0 (0 = default 2)")
	}
	if l.JobQueue < 0 {
		bad("-jobs-queue", l.JobQueue, "must be >= 0 (0 = 8x job workers)")
	}
	if l.JobRetention < 0 {
		bad("-jobs-retention", l.JobRetention, "must be >= 0 (0 = default 256)")
	}
	// Combination checks: each knob may be fine alone and still describe
	// a server that cannot work.
	workers := l.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if l.JobWorkers > 0 && l.Workers >= 0 && l.JobWorkers > 4*workers {
		bad("-jobs-workers", l.JobWorkers,
			fmt.Sprintf("more than 4x the %d simulation workers would be pure queueing, not parallelism", workers))
	}
	return errors.Join(errs...)
}

// checkStoreDir verifies the store directory is usable: an existing
// directory (or creatable path) that the process can write.
func checkStoreDir(dir string) error {
	info, err := os.Stat(dir)
	switch {
	case err == nil && !info.IsDir():
		return errors.New("exists but is not a directory")
	case err == nil:
		// Probe writability — a read-only store cannot persist results.
		probe := filepath.Join(dir, ".adassure-probe")
		f, err := os.Create(probe)
		if err != nil {
			return fmt.Errorf("not writable: %v", err)
		}
		f.Close()
		os.Remove(probe)
		return nil
	case os.IsNotExist(err):
		if parent := filepath.Dir(dir); parent != "" {
			if pinfo, perr := os.Stat(parent); perr == nil && !pinfo.IsDir() {
				return errors.New("parent is not a directory")
			}
		}
		return nil // Open will create it
	default:
		return fmt.Errorf("stat: %v", err)
	}
}

// LogSummary emits the single boot-time line recording every resolved
// limit, so the serving envelope of a process is greppable from its
// first log record.
func (l Limits) LogSummary(log *slog.Logger) {
	if log == nil {
		return
	}
	workers := l.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := l.QueueDepth
	if queue == 0 {
		queue = 2 * workers
	}
	jobWorkers := l.JobWorkers
	if jobWorkers == 0 {
		jobWorkers = 2
	}
	jobQueue := l.JobQueue
	if jobQueue == 0 {
		jobQueue = 8 * jobWorkers
	}
	jobRetention := l.JobRetention
	if jobRetention == 0 {
		jobRetention = 256
	}
	storeBytes := l.StoreBytes
	if l.StoreDir != "" && storeBytes == 0 {
		storeBytes = 256 << 20
	}
	log.Info("limits",
		slog.Int("workers", workers),
		slog.Int("queue", queue),
		slog.Int64("cache_bytes", l.CacheBytes),
		slog.Duration("timeout", l.Timeout),
		slog.Float64("max_duration", l.MaxDuration),
		slog.String("store_dir", l.StoreDir),
		slog.Int64("store_bytes", storeBytes),
		slog.Int("job_workers", jobWorkers),
		slog.Int("job_queue", jobQueue),
		slog.Int("job_retention", jobRetention),
	)
}
