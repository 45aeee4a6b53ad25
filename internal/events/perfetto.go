package events

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: the JSON-object format documented in the
// Trace Event Format spec and accepted by Perfetto (ui.perfetto.dev) and
// chrome://tracing. The mapping:
//
//   - every Track becomes one thread (tid), named via a thread_name
//     metadata event, so attack windows, per-assertion violation episodes
//     and guard intervals render as parallel swim lanes per scenario and
//     runner jobs as one lane per worker and request spans as one or
//     more lanes per trace;
//   - events with simulation time go under pid 1 ("sim-time"), ts =
//     T × 1e6 µs; wall-only events (runner jobs, request spans) go under
//     pid 2 ("wall-clock"), ts relative to the earliest wall stamp. Two
//     processes keep the two clock domains from visually overlapping;
//   - Begin/End map to ph "B"/"E", Instant to ph "i" with thread scope;
//     Attrs and Labels pass through as args.

// traceEvent is one entry of the exported traceEvents array.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level object form of the trace-event format.
type perfettoFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Perfetto process IDs for the two clock domains.
const (
	pidSimTime   = 1
	pidWallClock = 2
)

// WritePerfetto exports an event stream in Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing.
func WritePerfetto(w io.Writer, evs []Event) error {
	sorted := make([]Event, len(evs))
	copy(sorted, evs)
	SortForTimeline(sorted)

	// Stable track → tid assignment in first-appearance order, per pid.
	tids := map[string]int{}
	pids := map[string]int{}
	var out []traceEvent
	meta := func(pid, tid int, kind, name string) {
		out = append(out, traceEvent{
			Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(pidSimTime, 0, "process_name", "sim-time")
	meta(pidWallClock, 0, "process_name", "wall-clock")

	base := wallBase(sorted)
	nextTid := 1
	for _, e := range sorted {
		pid := pidSimTime
		ts := e.T * 1e6 // seconds → µs
		if e.T < 0 {
			pid = pidWallClock
			ts = float64(e.Wall-base) / 1e3 // ns → µs
			if e.Wall == 0 {
				ts = 0
			}
		}
		tid, ok := tids[e.Track]
		if !ok {
			tid = nextTid
			nextTid++
			tids[e.Track] = tid
			pids[e.Track] = pid
			meta(pid, tid, "thread_name", e.Track)
		}
		te := traceEvent{Name: e.Name, Cat: string(e.Cat), Ts: ts, Pid: pids[e.Track], Tid: tid}
		switch e.Kind {
		case Begin:
			te.Ph = "B"
		case End:
			te.Ph = "E"
		default:
			te.Ph = "i"
			te.Scope = "t"
		}
		if len(e.Attrs)+len(e.Labels) > 0 {
			args := make(map[string]any, len(e.Attrs)+len(e.Labels))
			for k, v := range e.Attrs {
				args[k] = v
			}
			for k, v := range e.Labels {
				args[k] = v
			}
			te.Args = args
		}
		out = append(out, te)
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(perfettoFile{TraceEvents: out, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("events: encode perfetto: %w", err)
	}
	return nil
}
