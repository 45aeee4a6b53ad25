package service

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adassure/internal/store"
)

// TestLimitsValidateJoinsEveryViolation: one Config.Validate call reports
// all broken limits at once, each as a typed *LimitError.
func TestLimitsValidateJoinsEveryViolation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		fields []string
	}{
		{"every knob", Config{
			Workers:     -1,
			QueueDepth:  -2,
			CacheBytes:  100, // positive but below the useful floor
			Timeout:     -time.Second,
			MaxDuration: math.NaN(),
			StoreBytes:  1 << 20, // set without StoreDir
		}, []string{
			"-workers", "-queue", "-cache-bytes", "-timeout", "-max-duration", "-store-bytes",
		}},
		// A non-finite cap would pass every "duration > cap" check, so it
		// must be refused rather than silently switching the cap off.
		{"NaN max duration", Config{MaxDuration: math.NaN()}, []string{"-max-duration"}},
		{"+Inf max duration", Config{MaxDuration: math.Inf(1)}, []string{"-max-duration"}},
		{"-Inf max duration", Config{MaxDuration: math.Inf(-1)}, []string{"-max-duration"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
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
	if err := (Config{StoreBytes: 4 << 20}).Validate(); err == nil {
		t.Fatal("store cap without a store directory validated clean")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero-value limits rejected: %v", err)
	}
	if err := (Config{CacheBytes: -1}).Validate(); err != nil {
		t.Fatalf("explicitly disabled cache rejected: %v", err)
	}
}

// TestLimitsValidateStoreDir: the store directory must be a writable
// directory (or creatable path).
func TestLimitsValidateStoreDir(t *testing.T) {
	dir := t.TempDir()
	if err := (Config{StoreDir: dir}).Validate(); err != nil {
		t.Fatalf("usable store dir rejected: %v", err)
	}
	if err := (Config{StoreDir: filepath.Join(dir, "new")}).Validate(); err != nil {
		t.Fatalf("creatable store dir rejected: %v", err)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (Config{StoreDir: file}).Validate(); err == nil {
		t.Fatal("plain file accepted as store dir")
	}
	if err := (Config{StoreDir: dir, StoreBytes: 1024}).Validate(); err == nil {
		t.Fatal("store cap below one segment accepted")
	}
}

// TestLimitsLogSummaryResolvesDefaults: the boot "limits" record carries
// the values the server enforces, not the zero placeholders that select
// them.
func TestLimitsLogSummaryResolvesDefaults(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := New(Config{
		Workers: 2,
		Store:   st,
		Logger:  slog.New(slog.NewTextHandler(&buf, nil)),
	})
	t.Cleanup(func() { s.Close(context.Background()) })
	out := buf.String()
	for _, want := range []string{
		"msg=limits", "workers=2", "queue=4", "cache_bytes=67108864", "timeout=1m0s", "max_duration=600",
		"store_bytes=268435456",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("limits line missing %q: %s", want, out)
		}
	}
}
