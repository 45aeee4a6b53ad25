package service

import (
	"bytes"
	"errors"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLimitsValidateJoinsEveryViolation: one Validate call reports all
// broken knobs at once, each as a typed *LimitError.
func TestLimitsValidateJoinsEveryViolation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		limits Limits
		fields []string
	}{
		{"every knob", Limits{
			Workers:      -1,
			QueueDepth:   -2,
			CacheBytes:   100, // positive but below the useful floor
			Timeout:      -time.Second,
			MaxDuration:  math.NaN(),
			StoreBytes:   1 << 20, // set without StoreDir
			JobWorkers:   -3,
			JobQueue:     -4,
			JobRetention: -5,
		}, []string{
			"-workers", "-queue", "-cache-bytes", "-timeout", "-max-duration",
			"-store-bytes", "-jobs-workers", "-jobs-queue", "-jobs-retention",
		}},
		// A non-finite cap would pass every "duration > cap" check, so it
		// must be refused rather than silently switching the cap off.
		{"NaN max duration", Limits{MaxDuration: math.NaN()}, []string{"-max-duration"}},
		{"+Inf max duration", Limits{MaxDuration: math.Inf(1)}, []string{"-max-duration"}},
		{"-Inf max duration", Limits{MaxDuration: math.Inf(-1)}, []string{"-max-duration"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.limits.Validate()
			if err == nil {
				t.Fatal("pathological limits validated clean")
			}
			var le *LimitError
			if !errors.As(err, &le) {
				t.Fatalf("violations are not typed LimitErrors: %v", err)
			}
			msg := err.Error()
			for _, field := range tc.fields {
				if !strings.Contains(msg, field) {
					t.Errorf("joined error missing %s: %s", field, msg)
				}
			}
		})
	}
}

// TestLimitsValidateCombinations: knobs fine alone can be rejected
// together.
func TestLimitsValidateCombinations(t *testing.T) {
	if err := (Limits{Workers: 2, JobWorkers: 64}).Validate(); err == nil {
		t.Fatal("job tier 32x wider than the simulation pool validated clean")
	}
	if err := (Limits{Workers: 2, JobWorkers: 8}).Validate(); err != nil {
		t.Fatalf("4x job tier rejected: %v", err)
	}
	if err := (Limits{}).Validate(); err != nil {
		t.Fatalf("zero-value limits rejected: %v", err)
	}
	if err := (Limits{CacheBytes: -1}).Validate(); err != nil {
		t.Fatalf("explicitly disabled cache rejected: %v", err)
	}
}

// TestLimitsValidateStoreDir: the store directory must be a writable
// directory (or creatable path).
func TestLimitsValidateStoreDir(t *testing.T) {
	dir := t.TempDir()
	if err := (Limits{StoreDir: dir}).Validate(); err != nil {
		t.Fatalf("usable store dir rejected: %v", err)
	}
	if err := (Limits{StoreDir: filepath.Join(dir, "new")}).Validate(); err != nil {
		t.Fatalf("creatable store dir rejected: %v", err)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (Limits{StoreDir: file}).Validate(); err == nil {
		t.Fatal("plain file accepted as store dir")
	}
	if err := (Limits{StoreDir: dir, StoreBytes: 1024}).Validate(); err == nil {
		t.Fatal("store cap below one segment accepted")
	}
}

// TestLimitsLogSummaryResolvesDefaults: the boot line carries resolved
// values, not the zero placeholders.
func TestLimitsLogSummaryResolvesDefaults(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	Limits{StoreDir: "/tmp/s"}.LogSummary(log)
	out := buf.String()
	for _, want := range []string{"job_workers=2", "store_bytes=268435456", "msg=limits"} {
		if !strings.Contains(out, want) {
			t.Errorf("limits line missing %q: %s", want, out)
		}
	}
	Limits{}.LogSummary(nil) // nil logger must not panic
}
