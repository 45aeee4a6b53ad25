package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBootRejectsInvalidLimits: every nonsensical resource limit fails
// run before the server listens, naming the flag.
func TestBootRejectsInvalidLimits(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-workers", "5000"}, "-workers"},
		{[]string{"-queue", "-2"}, "-queue"},
		{[]string{"-cache-bytes", "100"}, "-cache-bytes"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-max-duration", "NaN"}, "-max-duration"},
		{[]string{"-max-duration", "+Inf"}, "-max-duration"},
		{[]string{"-store-bytes", "1048576"}, "-store-bytes"},
		{[]string{"-store-dir", dir, "-store-bytes", "-1"}, "-store-bytes"},
		{[]string{"-store-dir", dir, "-store-bytes", "1024"}, "-store-bytes"},
		{[]string{"-store-dir", file}, "-store-dir"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
		err := run(args, null, null)
		if err == nil || !strings.Contains(err.Error(), "invalid limits") || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an invalid-limits error naming %s", tc.args, err, tc.flag)
		}
	}
}
