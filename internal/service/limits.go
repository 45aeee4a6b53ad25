package service

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
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

// Validate checks every resource limit of the config and their
// combinations, returning all violations joined, each a *LimitError named
// by its adassure-server flag. A nil error means the combination is
// serveable. adassure-server calls it at boot; New does not.
func (c Config) Validate() error {
	var errs []error
	bad := func(field string, value any, reason string) {
		errs = append(errs, &LimitError{Field: field, Value: value, Reason: reason})
	}
	if c.Workers < 0 {
		bad("-workers", c.Workers, "must be >= 0 (0 = GOMAXPROCS)")
	}
	if c.Workers > maxWorkers {
		bad("-workers", c.Workers, fmt.Sprintf("must be <= %d", maxWorkers))
	}
	if c.QueueDepth < 0 {
		bad("-queue", c.QueueDepth, "must be >= 0 (0 = 2x workers)")
	}
	if c.CacheBytes > 0 && c.CacheBytes < minUsefulCacheBytes {
		bad("-cache-bytes", c.CacheBytes,
			fmt.Sprintf("positive cap below %d bytes cannot hold one response; use a negative value to disable caching explicitly", minUsefulCacheBytes))
	}
	if c.Timeout < 0 {
		bad("-timeout", c.Timeout, "must be >= 0 (0 = default 60s)")
	}
	if math.IsNaN(c.MaxDuration) || math.IsInf(c.MaxDuration, 0) {
		// A NaN or infinite cap fails every "d > cap" test, which would
		// silently switch the cap off; disabling it is spelled negative.
		bad("-max-duration", c.MaxDuration, "must be finite (negative disables the cap)")
	}
	if c.StoreDir == "" && c.StoreBytes != 0 {
		bad("-store-bytes", c.StoreBytes, "set without -store-dir; the persistent store needs a directory")
	}
	if c.StoreDir != "" {
		if c.StoreBytes < 0 {
			bad("-store-bytes", c.StoreBytes, "must be >= 0 (0 = default 256 MiB)")
		} else if c.StoreBytes > 0 && c.StoreBytes < minUsefulStoreBytes {
			bad("-store-bytes", c.StoreBytes, fmt.Sprintf("must be >= %d bytes (one segment)", minUsefulStoreBytes))
		}
		if err := checkStoreDir(c.StoreDir); err != nil {
			bad("-store-dir", c.StoreDir, err.Error())
		}
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
