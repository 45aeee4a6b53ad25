// Command adassure-trace inspects the debugging artifacts ADAssure runs
// produce: signal traces, structured event timelines, forensic bundles
// and distributed-trace span exports.
//
// Usage:
//
//	adassure-trace stats run.json          # signal summary statistics
//	adassure-trace csv run.json > run.csv  # trace as CSV
//	adassure-trace events run-events.json  # plain-text event timeline
//	adassure-trace bundle bundle_000_*.json  # pretty-print one bundle
//	adassure-trace perfetto run-events.json > trace.json  # Chrome trace JSON
//
// events and perfetto accept either timeline document — a
// flight-recorder events file or a span export fetched from the server's
// /debug/traces/<id> endpoint — told apart by the document's schema
// field. A span export becomes the same Begin/End events a scenario
// records, so both views share one renderer and one exporter.
//
// Every subcommand accepts "-" as the file argument to read from stdin,
// e.g. piping an events file straight out of adassure-sim, or a span
// export straight off a server:
//
//	adassure-sim -attack gnss-drift-spoof -events /dev/stdout | adassure-trace events -
//	curl -s localhost:8080/debug/traces/$ID | adassure-trace events -
//
// Exit status: 0 on success, 1 on file-read or parse errors, 2 on bad
// invocation (unknown subcommand or wrong argument count).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"adassure"
	"adassure/internal/telemetry"
	"adassure/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it executes one subcommand against the
// given streams and returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	usage := func() int {
		fmt.Fprintln(stderr, "usage: adassure-trace (stats|csv|events|bundle|perfetto) <file.json | ->")
		return 2
	}
	if len(args) != 2 {
		return usage()
	}
	mode, path := args[0], args[1]

	var cmd func(io.Reader, io.Writer) error
	switch mode {
	case "stats":
		cmd = runStats
	case "csv":
		cmd = runCSV
	case "events":
		cmd = runEvents
	case "bundle":
		cmd = runBundle
	case "perfetto":
		cmd = runPerfetto
	default:
		return usage()
	}

	in := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "adassure-trace:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	if err := cmd(in, stdout); err != nil {
		fmt.Fprintln(stderr, "adassure-trace:", err)
		return 1
	}
	return 0
}

// runStats lists the signals of a JSON trace with summary statistics.
func runStats(in io.Reader, out io.Writer) error {
	tr, err := trace.ReadJSON(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-16s %8s %12s %12s %12s %12s\n", "signal", "samples", "min", "max", "mean", "rms")
	for _, sig := range tr.Signals() {
		st := tr.SignalStats(sig)
		fmt.Fprintf(out, "%-16s %8d %12.4f %12.4f %12.4f %12.4f\n",
			sig, st.Count, st.Min, st.Max, st.Mean, st.RMS)
	}
	return nil
}

// runCSV converts a JSON trace to CSV.
func runCSV(in io.Reader, out io.Writer) error {
	tr, err := trace.ReadJSON(in)
	if err != nil {
		return err
	}
	return tr.WriteCSV(out)
}

// runEvents renders either timeline document as a plain-text timeline.
func runEvents(in io.Reader, out io.Writer) error {
	evs, note, err := readTimeline(in)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(out, note); err != nil {
		return err
	}
	return adassure.WriteEventTimeline(out, evs)
}

// runBundle pretty-prints one forensic bundle.
func runBundle(in io.Reader, out io.Writer) error {
	b, err := adassure.ReadForensicBundle(in)
	if err != nil {
		return err
	}
	return b.Render(out)
}

// runPerfetto converts either timeline document to Chrome trace-event
// JSON for ui.perfetto.dev / chrome://tracing.
func runPerfetto(in io.Reader, out io.Writer) error {
	evs, _, err := readTimeline(in)
	if err != nil {
		return err
	}
	return adassure.WritePerfetto(out, evs)
}

// readTimeline reads a flight-recorder events file or a span export,
// dispatching on the document's schema field, and returns its events plus
// a note (possibly empty) on what the producer dropped.
func readTimeline(in io.Reader) (evs []adassure.Event, note string, err error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, "", err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(data, &probe) == nil && probe.Schema == telemetry.Schema {
		tr, err := telemetry.ReadTrace(bytes.NewReader(data))
		if tr.Dropped > 0 {
			note = fmt.Sprintf("trace %s: %d span(s) dropped at the per-trace cap\n", tr.TraceID, tr.Dropped)
		}
		return tr.Events(), note, err
	}
	log, err := adassure.ReadEventLog(bytes.NewReader(data))
	if log.Dropped > 0 {
		note = fmt.Sprintf("flight recorder: %d older event(s) dropped (capacity %d)\n", log.Dropped, log.Capacity)
	}
	return log.Events, note, err
}
