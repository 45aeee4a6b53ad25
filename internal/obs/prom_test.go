package obs

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata from the current output")

// goldenRegistry builds the deterministic registry behind the exposition
// golden: every metric kind, labeled and unlabeled series, escaping, and
// a traced observation that must surface as a bucket exemplar.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("sim.runs").Add(3)
	reg.CounterL("service.http.requests", "route", "/v1/run", "status", "200").Add(2)
	reg.CounterL("service.http.requests", "status", "429", "route", "/v1/run").Inc() // key order must not matter
	reg.CounterL("service.http.requests", "route", "/v1/stream", "status", "200").Inc()
	reg.Counter("weird.name-with+chars").Inc()
	reg.CounterL("escape.check", "msg", "say \"hi\"\\\n").Inc()
	reg.Gauge("runner.pool.queue_depth").Set(4)
	reg.Gauge("sim.steps_per_sec").Set(12345.5)

	h := reg.HistogramWith("service.request_ns", []int64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(50)
	h.Observe(700)
	h.ObserveEx(9000, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.ObserveEx(123456, "00f067aa0ba902b74bf92f3577b34da6")

	lh := reg.HistogramL("stream.frame_ns", "session", "s1")
	lh.Observe(65)
	return reg
}

// TestPromGolden pins the exposition output byte-for-byte: family and
// series ordering, _total suffixes, cumulative le buckets, exemplars,
// escaping and the # EOF terminator. Regenerate with
//
//	go test ./internal/obs -run TestPromGolden -update
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prom.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("exposition drifted from %s (regenerate with -update if intentional)\n--- want\n%s\n--- got\n%s",
			path, want, buf.Bytes())
	}
	// The golden must itself satisfy the strict parser.
	if _, err := ParseProm(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("golden exposition fails strict parse: %v", err)
	}
}

func TestPromParseRejects(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE a counter\na_total 1\n",
		"sample before TYPE": "a_total 1\n# EOF\n",
		"duplicate TYPE":     "# TYPE a counter\n# TYPE a counter\n# EOF\n",
		"bad type":           "# TYPE a summary\n# EOF\n",
		"counter bare name":  "# TYPE a counter\na 1\n# EOF\n",
		"content after EOF":  "# EOF\n# TYPE a counter\n",
		"duplicate series":   "# TYPE a counter\na_total 1\na_total 2\n# EOF\n",
		"bad escape":         "# TYPE a counter\na_total{x=\"\\q\"} 1\n# EOF\n",
		"unterminated label": "# TYPE a counter\na_total{x=\"y\" 1\n# EOF\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n# EOF\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n# EOF\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n# EOF\n",
		"exemplar on counter": "# TYPE a counter\na_total 1 # {trace_id=\"x\"} 1\n# EOF\n",
	}
	for name, text := range cases {
		if _, err := ParseProm(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestPromJSONParity is the property test: for randomly populated
// registries, the exposition must agree with the registry's own handles
// on every value — per-series counters, gauges, histogram totals and
// per-bucket counts (reconstructed from the cumulative le series).
func TestPromJSONParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		reg := NewRegistry()
		nC, nG, nH := rng.Intn(5)+1, rng.Intn(4), rng.Intn(3)+1
		for i := 0; i < nC; i++ {
			c := reg.CounterL(fmt.Sprintf("c%d", i), "idx", strconv.Itoa(rng.Intn(3)))
			c.Add(rng.Int63n(1e6) + 1)
		}
		for i := 0; i < nG; i++ {
			reg.Gauge(fmt.Sprintf("g%d", i)).Set(rng.NormFloat64() * 100)
		}
		for i := 0; i < nH; i++ {
			h := reg.HistogramWith(fmt.Sprintf("h%d", i), []int64{10, 100, 1000, 10000})
			for j := rng.Intn(50); j > 0; j-- {
				v := rng.Int63n(20000)
				if rng.Intn(4) == 0 {
					h.ObserveEx(v, "4bf92f3577b34da6a3ce929d0e0e4736")
				} else {
					h.Observe(v)
				}
			}
		}

		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		doc, err := ParseProm(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		for key, c := range reg.counters {
			base, _ := splitKey(key)
			got, ok := promSeriesValue(doc, PromName(base)+"_total", key)
			if want := c.Value(); !ok || got != float64(want) {
				t.Fatalf("trial %d: counter %q = %v (found %v) in prom, %d in the registry", trial, key, got, ok, want)
			}
		}
		for key, g := range reg.gauges {
			base, _ := splitKey(key)
			got, n := doc.Sum(PromName(base))
			if want := g.Value(); n != 1 || got != want {
				t.Fatalf("trial %d: gauge %q = %v (n=%d), want %v", trial, key, got, n, want)
			}
		}
		for key, h := range reg.hists {
			base, _ := splitKey(key)
			name := PromName(base)
			if got, n := doc.Sum(name + "_count"); n != 1 || got != float64(h.Count()) {
				t.Fatalf("trial %d: histogram %q count %v (n=%d), want %d", trial, key, got, n, h.Count())
			}
			if got, _ := doc.Sum(name + "_sum"); got != float64(h.Sum()) {
				t.Fatalf("trial %d: histogram %q sum mismatch", trial, key)
			}
			// Reconstruct per-bucket counts from the cumulative series.
			perBucket := map[int64]int64{}
			var prev float64
			for _, s := range doc.Family(name).Samples {
				if s.Name != name+"_bucket" || s.Labels["le"] == "+Inf" {
					continue
				}
				le, _ := strconv.ParseInt(s.Labels["le"], 10, 64)
				perBucket[le] = int64(s.Value - prev)
				prev = s.Value
			}
			for i, le := range h.bounds {
				if got, want := perBucket[le], h.counts[i].Load(); got != want {
					t.Fatalf("trial %d: histogram %q bucket le=%d: prom %d, registry %d",
						trial, key, le, got, want)
				}
			}
		}
	}
}

// TestPromNonFiniteGauges: NaN and ±Inf gauges are written in the text
// format's own spellings and read back as they were, not absorbed as 0.
func TestPromNonFiniteGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("nan").Set(math.NaN())
	reg.Gauge("pos").Set(math.Inf(1))
	reg.Gauge("neg").Set(math.Inf(-1))
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"nan NaN\n", "pos +Inf\n", "neg -Inf\n"} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("exposition misses %q:\n%s", line, buf.String())
		}
	}
	doc, err := ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, n := doc.Sum("nan"); n != 1 || !math.IsNaN(v) {
		t.Errorf("nan gauge read back as %v (n=%d)", v, n)
	}
	if v, n := doc.Sum("pos"); n != 1 || !math.IsInf(v, 1) {
		t.Errorf("+Inf gauge read back as %v (n=%d)", v, n)
	}
	if v, n := doc.Sum("neg"); n != 1 || !math.IsInf(v, -1) {
		t.Errorf("-Inf gauge read back as %v (n=%d)", v, n)
	}
}

// promSeriesValue finds the exact series for a registry key (base name +
// encoded labels) in a parsed doc.
func promSeriesValue(doc *PromDoc, sampleName, regKey string) (float64, bool) {
	_, labels := splitKey(regKey)
	for _, f := range doc.Families {
		for _, s := range f.Samples {
			if s.Name != sampleName {
				continue
			}
			if labelSignature(s.Labels, "") == labels {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// TestPromScrapeWhileRecording races scrapes against recorders; run
// under -race it proves /metrics is safe on a live server, and every
// scrape must still pass the strict parser (cumulativity holds
// mid-recording because buckets are read once per scrape).
func TestPromScrapeWhileRecording(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.CounterL("req", "worker", strconv.Itoa(g))
			h := reg.Histogram("lat")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				if i%3 == 0 {
					h.ObserveEx(int64(i%100000), "4bf92f3577b34da6a3ce929d0e0e4736")
				} else {
					h.Observe(int64(i % 100000))
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseProm(&buf); err != nil {
			t.Fatalf("scrape %d invalid mid-recording: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestLabeledResolutionStable(t *testing.T) {
	reg := NewRegistry()
	a := reg.CounterL("x", "b", "2", "a", "1")
	b := reg.CounterL("x", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("labeled series not shared")
	}
	var nilReg *Registry
	if nilReg.CounterL("x", "a", "1") != nil {
		t.Fatal("nil registry must resolve nil labeled handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label count must panic")
		}
	}()
	reg.CounterL("y", "only-key")
}
