package events

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteTimeline renders an event stream as a plain-text timeline for the
// harness and the adassure-trace CLI: one line per event, sim-time
// ordered, with kind markers (▶ begin, ■ end, ● instant), the numeric
// attributes and then the string labels inline. Sim-time events never
// print their wall stamp, so the render of a deterministic run is itself
// deterministic (golden-testable); wall-only events print their offset
// from the earliest wall stamp, or "wall" when they carry none.
func WriteTimeline(w io.Writer, evs []Event) error {
	sorted := make([]Event, len(evs))
	copy(sorted, evs)
	SortForTimeline(sorted)
	base := wallBase(sorted)

	trackW, nameW := len("track"), 0
	for _, e := range sorted {
		if len(e.Track) > trackW {
			trackW = len(e.Track)
		}
		if len(e.Name) > nameW {
			nameW = len(e.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "event timeline (%d events)\n", len(sorted)); err != nil {
		return err
	}
	for _, e := range sorted {
		marker := "●"
		switch e.Kind {
		case Begin:
			marker = "▶"
		case End:
			marker = "■"
		}
		ts := "   wall    "
		switch {
		case e.T >= 0:
			ts = fmt.Sprintf("t=%8.2fs", e.T)
		case e.Wall > 0:
			ts = fmt.Sprintf("+%8.3fms", float64(e.Wall-base)/1e6)
		}
		line := fmt.Sprintf("  %s  %s %-7s [%-9s] %-*s  %-*s",
			ts, marker, e.Kind, e.Cat, trackW, e.Track, nameW, e.Name)
		for _, kv := range [...]string{formatKV(e.Attrs, "%.4g"), formatKV(e.Labels, "%s")} {
			if kv != "" {
				line += "  " + kv
			}
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	return nil
}

// formatKV renders a map as key=value pairs in sorted key order, each
// value printed with verb.
func formatKV[V any](m map[string]V, verb string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s="+verb, k, m[k])
	}
	return strings.Join(parts, " ")
}
