package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// Prometheus text exposition. WriteProm renders the registry in the
// OpenMetrics-flavoured text format served at /metrics: one `# TYPE`
// line per family, counter samples with the `_total` suffix, histogram
// samples as cumulative `le` buckets (every configured bound plus
// `+Inf`) with `_sum`/`_count`, label sets in sorted-key order, and
// trace-ID exemplars appended to the bucket a traced observation landed
// in. Exemplar timestamps are intentionally omitted so the output of a
// quiesced registry is byte-deterministic (the golden test depends on
// it). The stream ends with `# EOF`.
//
// Dotted registry names map to Prometheus conventions mechanically:
// every character outside [a-zA-Z0-9_:] becomes '_', so "sim.runs"
// scrapes as sim_runs_total. ParseProm is the strict inverse reader.

// PromName sanitises a registry metric name into a legal Prometheus
// metric name: characters outside [a-zA-Z0-9_:] become '_', and a
// leading digit is prefixed with '_'.
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	b := []byte(name)
	for i, c := range b {
		if !promNameByte(c, i > 0) {
			b[i] = '_'
		}
	}
	if b[0] >= '0' && b[0] <= '9' {
		b = append([]byte{'_'}, b...)
	}
	return string(b)
}

func promNameByte(c byte, notFirst bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return notFirst
	}
	return false
}

// promSeries is one registry entry resolved for exposition.
type promSeries struct {
	labels string // encoded label body, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// promFamily groups the series sharing one exposition family name.
type promFamily struct {
	name   string // sanitized family name (without _total/_bucket suffixes)
	kind   string // "counter" | "gauge" | "histogram"
	series []promSeries
}

// WriteProm renders a point-in-time view of the registry in the
// Prometheus/OpenMetrics text exposition format. Concurrent recorders may
// race with the scrape; each histogram's bucket lines, `+Inf` bucket and
// `_count` are derived from a single read of the bucket counters, so the
// cumulative structure is always internally consistent.
func (r *Registry) WriteProm(w io.Writer) error {
	fams := map[string]*promFamily{}
	add := func(key, kind string, s promSeries) {
		base, labels := splitKey(key)
		name := PromName(base)
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, kind: kind}
			fams[name] = f
		}
		s.labels = labels
		f.series = append(f.series, s)
	}
	if r != nil {
		r.mu.Lock()
		for k, c := range r.counters {
			add(k, "counter", promSeries{c: c})
		}
		for k, g := range r.gauges {
			add(k, "gauge", promSeries{g: g})
		}
		for k, h := range r.hists {
			add(k, "histogram", promSeries{h: h})
		}
		r.mu.Unlock()
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case "counter":
				fmt.Fprintf(bw, "%s_total%s %d\n", f.name, braced(s.labels), s.c.Value())
			case "gauge":
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(s.labels),
					strconv.FormatFloat(s.g.Value(), 'g', -1, 64))
			case "histogram":
				writePromHistogram(bw, f.name, s.labels, s.h)
			}
		}
	}
	fmt.Fprintf(bw, "# EOF\n")
	return bw.Flush()
}

// ServeHTTP serves the registry's exposition, the body of a GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if err := r.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writePromHistogram emits the cumulative bucket series for one
// histogram. All bucket counts come from one pass over the counters so
// the `le` cumulativity and the `_count` total always agree within a
// scrape, even while recorders run.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram) {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	var cum, total int64
	for _, c := range counts {
		total += c
	}
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d", name, bracedWith(labels, "le", strconv.FormatInt(bound, 10)), cum)
		writeExemplar(w, h.ex[i].Load())
		io.WriteString(w, "\n")
	}
	fmt.Fprintf(w, "%s_bucket%s %d", name, bracedWith(labels, "le", "+Inf"), total)
	writeExemplar(w, h.ex[len(h.bounds)].Load())
	io.WriteString(w, "\n")
	fmt.Fprintf(w, "%s_sum%s %d\n", name, braced(labels), h.sum.Load())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), total)
}

// writeExemplar appends an OpenMetrics exemplar (no timestamp — the
// exposition stays deterministic for golden comparison).
func writeExemplar(w io.Writer, ex *Exemplar) {
	if ex == nil {
		return
	}
	fmt.Fprintf(w, ` # {trace_id="%s"} %d`, escapeLabelValue(ex.TraceID), ex.Value)
}

// braced wraps an encoded label body in braces ("" stays "").
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// bracedWith appends one extra label (e.g. le) to an encoded label body.
func bracedWith(labels, key, value string) string {
	if labels == "" {
		return "{" + key + `="` + value + `"}`
	}
	return "{" + labels + "," + key + `="` + value + `"}`
}
