package cli

import (
	"flag"
	"io"
	"runtime"
	"strings"

	"adassure/internal/events"
	"adassure/internal/mutate"
	"adassure/internal/obs"
	"adassure/internal/sim"
)

// Campaign is the flag set the campaign commands (adassure-mutate,
// adassure-search) share: the campaign base (-controller, -tracks, -seed,
// -duration, -workers) and its outputs (-json, -metrics, -events).
// RegisterCampaign declares it, Base builds the base and WriteFiles writes
// the outputs.
type Campaign struct {
	controller, tracks    string
	seed                  int64
	duration              float64
	workers               int
	json, metrics, events string

	reg *obs.Registry
	rec *events.Recorder
}

// RegisterCampaign declares the campaign flags on fs.
func RegisterCampaign(fs *flag.FlagSet) *Campaign {
	c := &Campaign{}
	fs.StringVar(&c.controller, "controller", "pure-pursuit", "lateral controller under test")
	fs.StringVar(&c.tracks, "tracks", "", "comma-separated route names (default urban-loop,hairpin)")
	fs.Int64Var(&c.seed, "seed", 1, "seed for all stochastic components")
	fs.Float64Var(&c.duration, "duration", sim.DefaultDuration, "simulated seconds per run")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0), "campaign pool size")
	fs.StringVar(&c.json, "json", "", `write the report as JSON to this file ("-" = stdout)`)
	fs.StringVar(&c.metrics, "metrics", "", "write the runtime metrics as Prometheus text to this file")
	fs.StringVar(&c.events, "events", "", "write the structured event timeline as JSON to this file")
	return c
}

// Base returns the campaign base the parsed flags name, with a metrics
// registry when -metrics names a file and an event recorder when -events
// does.
func (c *Campaign) Base() mutate.Campaign {
	if c.metrics != "" {
		c.reg = obs.NewRegistry()
	}
	if c.events != "" {
		c.rec = events.NewRecorder(0)
	}
	return mutate.Campaign{
		Controller: c.controller,
		Tracks:     SplitCSV(c.tracks),
		Seed:       c.seed,
		Duration:   c.duration,
		Workers:    c.workers,
		Obs:        c.reg,
		Events:     c.rec,
	}
}

// JSONToStdout reports whether -json - asks for the report on stdout in
// place of the text rendering.
func (c *Campaign) JSONToStdout() bool { return c.json == "-" }

// WriteFiles writes the report, the metrics exposition and the event log, in
// that order, each only when its flag names a file, and prints one line
// per file on w.
func (c *Campaign) WriteFiles(w io.Writer, report func(io.Writer) error) error {
	path := c.json
	if c.JSONToStdout() {
		path = "" // already written to stdout
	}
	if err := Write(w, path, "report", report); err != nil {
		return err
	}
	if err := Write(w, c.metrics, "metrics", c.reg.WriteProm); err != nil {
		return err
	}
	return Write(w, c.events, "events", c.rec.WriteJSON)
}

// SplitCSV splits a comma-separated list, trimming spaces and dropping
// empty items (nil for none).
func SplitCSV(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
