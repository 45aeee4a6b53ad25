// Command adassure-promcheck validates a Prometheus exposition document
// on stdin — the CI gate behind "curl /metrics | adassure-promcheck".
//
// Parsing alone is already a strict structural check (obs.ParseProm
// verifies TYPE declarations, suffix discipline, cumulative buckets, the
// +Inf/_count invariant and the # EOF terminator). On top of that, flags
// assert facts about the scrape's content:
//
//	adassure-promcheck \
//	    -counter sim_runs_total==1 \
//	    -counter service_cache_hits_total=1 \
//	    -family runner_pool_queue_wait_ns=histogram \
//	    -exemplar service_request_ns < scrape.txt
//
// Usage:
//
//	adassure-promcheck [-counter name=min | -counter name==n]...
//	    [-family name[=type]]... [-exemplar family]... [-q]
//
// -counter name=min asserts the summed value of a counter sample name
// across all label sets is at least min; -counter name==n asserts it
// equals n exactly. An absent series fails either form, except ==0,
// which reads it as 0 (a counter that never counted is never written).
// -family asserts a metric family exists
// (optionally with the given type); -exemplar asserts at least one
// bucket of the family carries a trace_id exemplar. Each flag repeats.
//
// Exit status: 0 when the document parses and every assertion holds,
// 1 otherwise, 2 on bad invocation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"adassure/internal/obs"
)

// repeatable collects every occurrence of a string flag.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it validates the exposition on in and
// returns the process exit code.
func run(args []string, in io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adassure-promcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		counters  repeatable
		families  repeatable
		exemplars repeatable
		quiet     = fs.Bool("q", false, "suppress the success summary")
	)
	fs.Var(&counters, "counter", "assert sample `name=min` (summed counter value >= min) or name==n (== n) (repeatable)")
	fs.Var(&families, "family", "assert metric family `name[=type]` exists (repeatable)")
	fs.Var(&exemplars, "exemplar", "assert histogram `family` has a trace_id exemplar (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "adassure-promcheck: reads the exposition from stdin; no positional arguments")
		return 2
	}

	doc, err := obs.ParseProm(in)
	if err != nil {
		fmt.Fprintln(stderr, "adassure-promcheck:", err)
		return 1
	}

	var failures []string
	for _, spec := range counters {
		name, want, ok := strings.Cut(spec, "=")
		exact, bound := false, 1.0
		if ok {
			want, exact = strings.CutPrefix(want, "=")
			v, err := strconv.ParseFloat(want, 64)
			if err != nil {
				fmt.Fprintf(stderr, "adassure-promcheck: -counter %q: bad value: %v\n", spec, err)
				return 2
			}
			bound = v
		}
		total, series := doc.Sum(name)
		switch {
		case series == 0 && !(exact && bound == 0):
			failures = append(failures, fmt.Sprintf("counter %s: no series", name))
		case exact && total != bound:
			failures = append(failures, fmt.Sprintf("counter %s: total %g != required %g", name, total, bound))
		case !exact && total < bound:
			failures = append(failures, fmt.Sprintf("counter %s: total %g < required %g", name, total, bound))
		}
	}
	for _, spec := range families {
		name, typ, _ := strings.Cut(spec, "=")
		f := doc.Family(name)
		if f == nil {
			failures = append(failures, fmt.Sprintf("family %s: not declared", name))
		} else if typ != "" && f.Type != typ {
			failures = append(failures, fmt.Sprintf("family %s: type %s, want %s", name, f.Type, typ))
		}
	}
	for _, name := range exemplars {
		if doc.Family(name) == nil {
			failures = append(failures, fmt.Sprintf("exemplar %s: family not declared", name))
		} else if !doc.HasExemplar(name) {
			failures = append(failures, fmt.Sprintf("exemplar %s: no bucket carries a trace_id exemplar", name))
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "adassure-promcheck: FAIL:", f)
		}
		return 1
	}
	if !*quiet {
		samples := 0
		for _, f := range doc.Families {
			samples += len(f.Samples)
		}
		fmt.Fprintf(stdout, "ok: %d families, %d samples, %d assertions\n",
			len(doc.Families), samples, len(counters)+len(families)+len(exemplars))
	}
	return 0
}
