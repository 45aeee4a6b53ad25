// Package cli holds what the command-line tools share: one set of
// observability flags (-metrics, -pprof, -events, -perfetto, -flight) and
// one file writer, so every command names, starts and writes its outputs
// the same way.
package cli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"

	"adassure/internal/events"
	"adassure/internal/obs"
)

// Obs is the observability flag set of one command. Register declares it,
// Start builds what its flags ask for and Finish writes the files.
type Obs struct {
	name                             string
	metrics, pprof, events, perfetto string
	flight                           int

	// Registry collects runtime metrics; Start sets it when -metrics or
	// -pprof is given, else it stays nil.
	Registry *obs.Registry
	// Recorder collects the event timeline; Start sets it when -events or
	// -perfetto is given, else it stays nil.
	Recorder *events.Recorder
}

// Register declares the observability flags on fs.
func Register(fs *flag.FlagSet) *Obs {
	o := &Obs{name: fs.Name()}
	fs.StringVar(&o.metrics, "metrics", "", "write the runtime metrics (sim/monitor/runner) as Prometheus text to this file")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof and the live /metrics on this address (e.g. localhost:6060)")
	fs.StringVar(&o.events, "events", "", "write the structured event timeline as JSON to this file")
	fs.StringVar(&o.perfetto, "perfetto", "", "write the event timeline as Chrome trace-event JSON (open in ui.perfetto.dev)")
	fs.IntVar(&o.flight, "flight", 0, "flight-recorder mode: keep only the newest N events (0 = unbounded)")
	return o
}

// Start builds the registry and the recorder the parsed flags ask for and,
// with -pprof, serves net/http/pprof plus the live registry at GET
// /metrics on the default mux for the life of the process, announcing the
// address on stderr. -pprof registers /metrics, so it is started once per
// process.
func (o *Obs) Start(stderr io.Writer) {
	if o.metrics != "" || o.pprof != "" {
		o.Registry = obs.NewRegistry()
	}
	if o.events != "" || o.perfetto != "" {
		o.Recorder = events.NewRecorder(o.flight)
	}
	if o.pprof == "" {
		return
	}
	http.Handle("GET /metrics", o.Registry)
	go func() {
		if err := http.ListenAndServe(o.pprof, nil); err != nil {
			fmt.Fprintf(stderr, "%s: pprof server: %v\n", o.name, err)
		}
	}()
	fmt.Fprintf(stderr, "pprof serving on http://%s/debug/pprof (metrics at /metrics)\n", o.pprof)
}

// Finish writes the metrics exposition, the event log and the Perfetto
// trace, in that order, each only when its flag names a file.
func (o *Obs) Finish(w io.Writer) error {
	if err := Write(w, o.metrics, "metrics", o.Registry.WriteProm); err != nil {
		return err
	}
	if err := Write(w, o.events, "events", o.Recorder.WriteJSON); err != nil {
		return err
	}
	return Write(w, o.perfetto, "perfetto trace", func(f io.Writer) error {
		return events.WritePerfetto(f, o.Recorder.Events())
	})
}

// Write creates path, streams fn into it and closes it, then prints
// "<what> written to <path>" on w. An empty path writes nothing. Errors
// are wrapped as "write <what>: ..." and print no line.
func Write(w io.Writer, path, what string, fn func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err == nil {
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", what, err)
	}
	fmt.Fprintf(w, "%s written to %s\n", what, path)
	return nil
}
