package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"
)

// refTrace is the per-column reference the shared-axis storage must match:
// every signal keeps its own slice of samples.
type refTrace struct {
	names []string
	cols  map[string][]Sample
}

// append applies Append's contract: finite, non-decreasing time.
func (r *refTrace) append(name string, t, v float64) bool {
	s, ok := r.cols[name]
	if !ok {
		r.names = append(r.names, name)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) || (len(s) > 0 && t < s[len(s)-1].T) {
		r.cols[name] = s
		return false
	}
	r.cols[name] = append(s, Sample{T: t, Value: v})
	return true
}

// csv renders the reference the way WriteCSV defines the wide form: the
// union of every signal's times, each signal zero-order-held.
func (r *refTrace) csv() string {
	seen := map[float64]bool{}
	var times []float64
	for _, n := range r.names {
		for _, s := range r.cols[n] {
			if !seen[s.T] {
				seen[s.T] = true
				times = append(times, s.T)
			}
		}
	}
	sort.Float64s(times)
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write(append([]string{"t"}, r.names...))
	for _, t := range times {
		row := []string{strconv.FormatFloat(t, 'g', -1, 64)}
		for _, n := range r.names {
			s := r.cols[n]
			i := sort.Search(len(s), func(i int) bool { return s[i].T > t })
			cell := ""
			if i > 0 {
				cell = strconv.FormatFloat(s[i-1].Value, 'g', -1, 64)
			}
			row = append(row, cell)
		}
		w.Write(row)
	}
	w.Flush()
	return b.String()
}

// FuzzColumnsDifferential drives up to four signals through one trace,
// each skipping samples or starting late as the input says, and checks
// the shared time axis against a per-column reference: every append's
// verdict, Times and Values bit for bit, the CSV bytes and the JSON round
// trip. Each input byte is one step: its low four bits say which signals
// record, bits 4–5 how time moves (repeat, +0.5, +1, or a special time:
// −0 at the start, else a step back or NaN), and bits 6–7 which signal
// records first.
func FuzzColumnsDifferential(f *testing.F) {
	f.Add([]byte{0x0f, 0x1f, 0x2f, 0x1b, 0x2f})       // lockstep, then one skip
	f.Add([]byte{0x01, 0x13, 0x27, 0x1f, 0x6f})       // signals starting late
	f.Add([]byte{0x3f, 0x0f, 0x1a, 0x35, 0x25, 0xc5}) // −0, repeats, a step back
	f.Add([]byte{0x8f, 0x30, 0x4f, 0x3f, 0x1f})       // NaN and rotated order
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		if len(data) > 0 && data[0]&1 == 1 {
			tr.Reserve(4)
		}
		ref := &refTrace{cols: map[string][]Sample{}}
		now := 0.0
		for step, b := range data {
			switch (b >> 4) & 3 {
			case 1:
				now += 0.5
			case 2:
				now++
			case 3:
				switch {
				case now == 0:
					now = math.Copysign(0, -1)
				case step%2 == 0:
					now--
				default:
					now = math.NaN()
				}
			}
			for k := 0; k < 4; k++ {
				j := (k + int(b>>6)) % 4
				if b&(1<<j) == 0 {
					continue
				}
				name := fmt.Sprintf("s%d", j)
				v := float64(step*10 + j)
				got := tr.Column(name).Append(now, v) == nil
				if want := ref.append(name, now, v); got != want {
					t.Fatalf("step %d %s: Append(%v) accepted %v, reference %v", step, name, now, got, want)
				}
			}
			if math.IsNaN(now) {
				now = float64(step)
			}
		}
		if len(tr.Signals()) != len(ref.names) {
			t.Fatalf("%d signals, reference %d", len(tr.Signals()), len(ref.names))
		}
		for i, name := range tr.Signals() {
			if name != ref.names[i] {
				t.Fatalf("signal %d is %q, reference %q", i, name, ref.names[i])
			}
			c, want := tr.Column(name), ref.cols[name]
			ts, vs := c.Times(), c.Values()
			if len(ts) != len(want) || len(vs) != len(want) {
				t.Fatalf("%s: %d times and %d values, reference %d samples", name, len(ts), len(vs), len(want))
			}
			for k, s := range want {
				if math.Float64bits(ts[k]) != math.Float64bits(s.T) || math.Float64bits(vs[k]) != math.Float64bits(s.Value) {
					t.Fatalf("%s sample %d: (%v, %v), reference (%v, %v)", name, k, ts[k], vs[k], s.T, s.Value)
				}
			}
		}
		var b bytes.Buffer
		if err := tr.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if got, want := b.String(), ref.csv(); got != want {
			t.Fatalf("CSV differs from the reference:\n%s\nreference:\n%s", got, want)
		}
		b.Reset()
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(&b)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ref.names {
			got, want := back.Samples(name), ref.cols[name]
			if len(got) != len(want) {
				t.Fatalf("%s: %d samples after the JSON round trip, reference %d", name, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k].T) != math.Float64bits(want[k].T) || got[k].Value != want[k].Value {
					t.Fatalf("%s sample %d after the JSON round trip: %+v, reference %+v", name, k, got[k], want[k])
				}
			}
		}
	})
}
