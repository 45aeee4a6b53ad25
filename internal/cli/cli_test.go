package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// parse registers the flag set on a fresh FlagSet and parses argv.
func parse(t *testing.T, argv ...string) *Obs {
	t.Helper()
	fset := flag.NewFlagSet("cli-test", flag.ContinueOnError)
	o := Register(fset)
	if err := fset.Parse(argv); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestAllFlagsOff: with no observability flag, Start builds nothing and
// announces nothing, and Finish writes and prints nothing.
func TestAllFlagsOff(t *testing.T) {
	o := parse(t)
	var stderr, out bytes.Buffer
	o.Start(&stderr)
	if o.Registry != nil || o.Recorder != nil {
		t.Fatalf("Start with every flag off built registry %v, recorder %v", o.Registry, o.Recorder)
	}
	if err := o.Finish(&out); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 || out.Len() != 0 {
		t.Fatalf("flags off printed %q on stderr and %q on the report writer", stderr.String(), out.String())
	}
}

// TestFinishWritesEveryFile: with -metrics, -events and -perfetto, Finish
// writes the metrics exposition and two parseable JSON documents and
// prints one line per file, in that order; -flight bounds the recorder.
func TestFinishWritesEveryFile(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.prom")
	evs := filepath.Join(dir, "e.json")
	perf := filepath.Join(dir, "p.json")
	o := parse(t, "-metrics", metrics, "-events", evs, "-perfetto", perf, "-flight", "2")
	o.Start(io.Discard)
	if o.Registry == nil || o.Recorder == nil {
		t.Fatal("Start did not build the registry and recorder the flags ask for")
	}
	if got := o.Recorder.Capacity(); got != 2 {
		t.Fatalf("recorder capacity = %d, want the -flight bound 2", got)
	}
	o.Registry.Counter("test.count").Inc()
	o.Recorder.Begin(events.CatScenario, "s0/scenario", "run", 0, nil)
	o.Recorder.End(events.CatScenario, "s0/scenario", "run", 1, nil)

	var out bytes.Buffer
	if err := o.Finish(&out); err != nil {
		t.Fatal(err)
	}
	want := "metrics written to " + metrics + "\n" +
		"events written to " + evs + "\n" +
		"perfetto trace written to " + perf + "\n"
	if out.String() != want {
		t.Fatalf("Finish printed\n%s\nwant\n%s", out.String(), want)
	}
	for _, p := range []string{evs, perf} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s is not JSON: %v", p, err)
		}
	}
	wantCounter(t, metrics, "test_count_total", 1)
}

// wantCounter parses the exposition file at path strictly and checks that
// the counter sample name sums to want over exactly one series.
func wantCounter(t *testing.T, path, name string, want float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := obs.ParseProm(f)
	if err != nil {
		t.Fatalf("%s is not a valid exposition: %v", path, err)
	}
	if got, n := doc.Sum(name); n != 1 || got != want {
		t.Fatalf("%s: %s = %v over %d series, want %v over 1", path, name, got, n, want)
	}
}

// TestPprofServesMetrics: -pprof serves the live registry at GET /metrics
// on the default mux, as an exposition that parses strictly.
func TestPprofServesMetrics(t *testing.T) {
	o := parse(t, "-pprof", "127.0.0.1:0")
	var stderr bytes.Buffer
	o.Start(&stderr)
	if !strings.Contains(stderr.String(), "/metrics") {
		t.Errorf("Start announced %q, want the /metrics address", stderr.String())
	}
	o.Registry.Counter("test.count").Add(3)
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body)
	}
	doc, err := obs.ParseProm(rec.Body)
	if err != nil {
		t.Fatalf("GET /metrics is not a valid exposition: %v", err)
	}
	if got, n := doc.Sum("test_count_total"); n != 1 || got != 3 {
		t.Fatalf("test_count_total = %v over %d series, want 3", got, n)
	}
}

// TestWriteUncreatable: a path that cannot be created is a wrapped error
// naming what was being written, fn never runs and no line is printed.
func TestWriteUncreatable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "out.json")
	var out bytes.Buffer
	called := false
	err := Write(&out, path, "report", func(io.Writer) error { called = true; return nil })
	if err == nil || !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "write report: ") {
		t.Fatalf("err = %v, want a wrapped not-exist error prefixed \"write report: \"", err)
	}
	if called || out.Len() != 0 {
		t.Fatalf("failed create ran fn (%v) or printed %q", called, out.String())
	}
}

// TestWriteReportsStreamError: an error from fn is wrapped, the file is
// still closed and no line is printed; an empty path writes nothing.
func TestWriteReportsStreamError(t *testing.T) {
	boom := errors.New("boom")
	var out bytes.Buffer
	err := Write(&out, filepath.Join(t.TempDir(), "x"), "trace", func(io.Writer) error { return boom })
	if !errors.Is(err, boom) || err.Error() != "write trace: boom" {
		t.Fatalf("err = %v, want \"write trace: boom\"", err)
	}
	if err := Write(&out, "", "trace", func(io.Writer) error { return boom }); err != nil {
		t.Fatalf("empty path: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q", out.String())
	}
}

// TestCampaignFlags: the campaign flags build the base they name, with a
// registry and a recorder only when -metrics and -events ask for them,
// and WriteFiles writes each named file, skipping a report already sent
// to stdout.
func TestCampaignFlags(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.prom")
	fset := flag.NewFlagSet("cli-test", flag.ContinueOnError)
	c := RegisterCampaign(fset)
	if err := fset.Parse([]string{"-tracks", " urban-loop,,hairpin ", "-seed", "7", "-json", "-", "-metrics", metrics}); err != nil {
		t.Fatal(err)
	}
	base := c.Base()
	if base.Controller != "pure-pursuit" || base.Seed != 7 || base.Duration != 60 ||
		!slices.Equal(base.Tracks, []string{"urban-loop", "hairpin"}) {
		t.Errorf("base = %+v", base)
	}
	if base.Obs == nil || base.Events != nil {
		t.Errorf("-metrics alone built registry %v, recorder %v", base.Obs, base.Events)
	}
	if !c.JSONToStdout() {
		t.Error("-json - does not ask for stdout")
	}
	base.Obs.Counter("sim.runs").Add(2)
	var out bytes.Buffer
	report := func(io.Writer) error { t.Error("report written to a file after going to stdout"); return nil }
	if err := c.WriteFiles(&out, report); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "metrics written to "+metrics+"\n"; got != want {
		t.Errorf("WriteFiles printed %q, want %q", got, want)
	}
	wantCounter(t, metrics, "sim_runs_total", 2)
}
