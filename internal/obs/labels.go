package obs

import (
	"sort"
	"strings"
)

// Labeled metrics. A labeled series is an ordinary registry entry whose
// key encodes the label set in Prometheus series syntax:
//
//	service.http.requests{route="/v1/run",status="200"}
//
// Label keys are sorted and values escaped at resolution time, so the
// same label set always resolves the same series regardless of argument
// order. The exporter (WriteProm) parses the encoding back into
// per-series label strings; unlabeled metrics are unaffected.

// CounterL resolves the counter for name plus alternating key, value
// label pairs. It panics on an odd pair count — label sets are static
// configuration, like histogram bounds.
func (r *Registry) CounterL(name string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(keyWithLabels(name, kv))
}

// GaugeL resolves the gauge for name plus label pairs.
func (r *Registry) GaugeL(name string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.Gauge(keyWithLabels(name, kv))
}

// HistogramL resolves the histogram for name plus label pairs, creating
// it with DefaultLatencyBuckets on first use.
func (r *Registry) HistogramL(name string, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramWith(keyWithLabels(name, kv), nil)
}

// keyWithLabels encodes name plus label pairs into the canonical series
// key. No labels returns name unchanged.
func keyWithLabels(name string, kv []string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must come in key, value pairs")
	}
	n := len(kv) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return kv[2*idx[a]] < kv[2*idx[b]] })
	var sb strings.Builder
	sb.Grow(len(name) + 16*n)
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, j := range idx {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[2*j])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(kv[2*j+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// splitKey separates a series key into its base name and the encoded
// label body (without braces; "" when unlabeled).
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// escapeLabelValue applies the Prometheus exposition escapes: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	sb.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}
