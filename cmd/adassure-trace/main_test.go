package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adassure"
	"adassure/internal/telemetry"
	"adassure/internal/trace"
)

// traceFile writes a small valid trace JSON to a temp file and returns
// its path.
func traceFile(t *testing.T) string {
	t.Helper()
	tr := trace.New()
	for i := 0; i < 10; i++ {
		tr.Record("cte_true", float64(i)*0.1, float64(i))
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// eventsJSON returns a small valid events file as bytes.
func eventsJSON(t *testing.T) []byte {
	t.Helper()
	rec := adassure.NewEventRecorder(0).WithoutWallClock()
	rec.Begin("attack", "attack", "drift", 20, nil)
	rec.End("attack", "attack", "drift", 50, nil)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRunStatsAndCSVFromFile(t *testing.T) {
	path := traceFile(t)
	for _, mode := range []string{"stats", "csv"} {
		var out, errOut bytes.Buffer
		if code := run([]string{mode, path}, strings.NewReader(""), &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", mode, code, errOut.String())
		}
		if !strings.Contains(out.String(), "cte_true") {
			t.Errorf("%s: output missing signal name:\n%s", mode, out.String())
		}
	}
}

func TestRunReadsStdin(t *testing.T) {
	// satellite contract: "-" reads the input from stdin for every mode.
	data, err := os.ReadFile(traceFile(t))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"stats", "-"}, bytes.NewReader(data), &out, &errOut); code != 0 {
		t.Fatalf("stats from stdin: exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "cte_true") {
		t.Errorf("stats from stdin missing signal:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"events", "-"}, bytes.NewReader(eventsJSON(t)), &out, &errOut); code != 0 {
		t.Fatalf("events from stdin: exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "drift") {
		t.Errorf("timeline missing span name:\n%s", out.String())
	}
}

// spanExportJSON builds a small two-span trace export — the shape
// /debug/traces/<id> serves — that reports dropped spans lost to the
// per-trace cap.
func spanExportJSON(t *testing.T, dropped int) []byte {
	t.Helper()
	tr := telemetry.New(telemetry.Config{})
	root := tr.StartSpan("http /v1/run", "")
	child := root.StartChild("execute")
	child.SetAttr("disposition", "miss")
	child.End()
	root.End()
	exp, ok := tr.Export(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	exp.Dropped = dropped
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunEventsRendersSpanExport: the events view of a span export shows
// every span with its labels and duration, and the spans the per-trace
// cap dropped.
func TestRunEventsRendersSpanExport(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"events", "-"}, bytes.NewReader(spanExportJSON(t, 2)), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"http /v1/run", "execute", "disposition=miss", "span_id=", "dur_ms=",
		"2 span(s) dropped at the per-trace cap"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("events output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPerfettoSniffsSpanExport: the perfetto subcommand accepts both
// input shapes, dispatching on the schema field.
func TestRunPerfettoSniffsSpanExport(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"perfetto", "-"}, bytes.NewReader(spanExportJSON(t, 0)), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"B"`, `"ph":"E"`, `"http /v1/run"`, `"execute"`, `"disposition":"miss"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("perfetto span output missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunPerfettoConversion(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"perfetto", "-"}, bytes.NewReader(eventsJSON(t)), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"B"`, `"ph":"E"`, `"pid"`, `"tid"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("perfetto output missing %s:\n%s", want, out.String())
		}
	}
}

// TestExitCodes pins the satellite contract: 2 only for bad invocation,
// 1 for file-read and parse errors, so scripts can tell them apart.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"no args", nil, "", 2},
		{"one arg", []string{"stats"}, "", 2},
		{"extra args", []string{"stats", "a", "b"}, "", 2},
		{"unknown subcommand", []string{"zap", "x.json"}, "", 2},
		{"retired spans subcommand", []string{"spans", "-"}, "", 2},
		{"missing file", []string{"stats", filepath.Join(t.TempDir(), "nope.json")}, "", 1},
		{"parse error stats", []string{"stats", "-"}, "not json", 1},
		{"parse error events", []string{"events", "-"}, "not json", 1},
		{"parse error bundle", []string{"bundle", "-"}, `{"schema":"wrong"}`, 1},
		{"parse error perfetto", []string{"perfetto", "-"}, "{}", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			got := run(tc.args, strings.NewReader(tc.stdin), &out, &errOut)
			if got != tc.want {
				t.Errorf("exit = %d, want %d (stderr: %s)", got, tc.want, errOut.String())
			}
			if errOut.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}
