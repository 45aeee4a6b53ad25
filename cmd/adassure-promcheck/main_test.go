package main

import (
	"bytes"
	"strings"
	"testing"

	"adassure/internal/obs"
)

// scrape renders a registry with one counter, one labeled counter and
// one histogram carrying a trace-ID exemplar — a miniature of a live
// /metrics scrape.
func scrape(t *testing.T) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("sim.runs").Inc()
	reg.CounterL("service.http.requests", "route", "/v1/run", "status", "200").Add(3)
	h := reg.Histogram("service.request_ns")
	h.ObserveEx(1500, "0af7651916cd43dd8448eb211c80319c")
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPromcheckPasses(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-counter", "sim_runs_total=1",
		"-counter", "sim_runs_total==1",
		"-counter", "nope_total==0",
		"-counter", "service_http_requests_total=3",
		"-family", "service_request_ns=histogram",
		"-exemplar", "service_request_ns",
	}, bytes.NewReader(scrape(t)), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Errorf("missing success summary:\n%s", out.String())
	}
}

func TestPromcheckFailures(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"counter too low", []string{"-counter", "sim_runs_total=2"}, "total 1 < required 2"},
		{"counter absent", []string{"-counter", "nope_total"}, "no series"},
		{"exact miss", []string{"-counter", "service_http_requests_total==2"}, "total 3 != required 2"},
		{"exact absent", []string{"-counter", "nope_total==1"}, "no series"},
		{"family absent", []string{"-family", "nope"}, "not declared"},
		{"family wrong type", []string{"-family", "sim_runs=histogram"}, "type counter, want histogram"},
		{"exemplar absent", []string{"-exemplar", "sim_runs"}, "no bucket carries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, bytes.NewReader(scrape(t)), &out, &errOut); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, errOut.String())
			}
		})
	}
}

func TestPromcheckRejectsMalformed(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, strings.NewReader("sim_runs_total 1\n# EOF\n"), &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for sample without TYPE", code)
	}
	if code := run(nil, strings.NewReader("# TYPE sim_runs counter\nsim_runs_total 1\n"), &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for missing # EOF", code)
	}
	if code := run([]string{"extra.txt"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 for positional argument", code)
	}
	if code := run([]string{"-counter", "sim_runs_total==x"}, bytes.NewReader(scrape(t)), &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 for a malformed exact value", code)
	}
}
