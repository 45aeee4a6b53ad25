// Command perfbench is ADAssure-Go's end-to-end benchmark. One invocation
// runs one workload for a fixed wall time against the program built from
// the surrounding checkout, checks the program's outputs, prints a
// human-readable report and ends with one JSON result line:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
// untraced and then traced, and reports the per-layer ledger instead. The
// benchmark drives only the program's public entry points and times each
// layer from outside, around the calls into it. README.md describes every
// workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// workers bounds the serving workloads' concurrency: the server's execute
// workers, open-loop senders and HTTP connections alike. It is the core
// count the benchmark is sized for. Scenarios the benchmark runs itself
// run one at a time (runGrid).
const workers = 2

// setupReps is how often each workload sets itself up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports. A layer the workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"geom.project.calls", "count"},
	{"geom.project.ns_per_call", "ns"},
	{"geom.project_range.calls", "count"},
	{"geom.project_range.ns_per_call", "ns"},
	{"geom.curvature.calls", "count"},
	{"geom.curvature.ns_per_call", "ns"},
	{"geom.other.ns", "ns"},
	{"control.steer.self_ns_per_call", "ns"},
	{"control.accel.ns_per_call", "ns"},
	{"attacks.apply.calls", "count"},
	{"attacks.apply.ns", "ns"},
	{"sensors.delivered", "count"},
	{"core.monitor.ns_per_frame", "ns"},
	{"core.monitor.frames", "count"},
	{"core.monitor.violations", "count"},
	{"diagnosis.ns_per_run", "ns"},
	{"track.catalog.ns", "ns"},
	{"sim.self_ns_per_step", "ns"},
	{"sim.steps", "count"},
	{"service.self.ns", "ns"},
	{"service.cache_lookup.ns", "ns"},
	{"service.queue_wait.p50_ns", "ns"},
	{"service.queue_wait.p95_ns", "ns"},
	{"service.execute.ns", "ns"},
	{"service.transport.ns", "ns"},
	{"service.hit_ratio", "ratio"},
	{"service.store_ratio", "ratio"},
	{"service.miss_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"store.put.ns", "ns"},
	{"store.get.ns", "ns"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"ledger.unattributed_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	work    string // scratch directory inside the checkout
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	checkErr          error // first failed output check
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// opFailed counts an operation the program failed or refused.
func (r *report) opFailed(err error) {
	if r.failed == 0 {
		r.notes = append(r.notes, "first failure: "+err.Error())
	}
	r.failed++
}

// checkFailed counts an operation whose output failed a check.
func (r *report) checkFailed(err error) {
	r.failed++
	if r.checkErr == nil {
		r.checkErr = err
	}
}

var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"sweep":      runSweep,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

func main() {
	name := flag.String("workload", "", "sweep, serve-hot or serve-cold")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 20, "wall seconds to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger of a traced pass")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|serve-hot|serve-cold --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	os.Exit(benchmark(*name, run, runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
	}))
}

// benchmark runs one workload in a scratch directory under .bench_build
// and prints its report; it returns the process exit code.
func benchmark(name string, run func(context.Context, runConfig) (*report, error), cfg runConfig) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg.work = work
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := writeReport(os.Stdout, name, cfg, defs, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if rep.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", name, rep.checkErr)
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the human-readable report and, as its last line, the
// JSON result.
func writeReport(w io.Writer, name string, cfg runConfig, defs []metricDef, rep *report) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.measure.Seconds(), cfg.trace)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload reported no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", d.name, v)
		}
		metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, error_rate %.4g\n", rep.attempted, rep.failed, ratio(rep.failed, rep.attempted))
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.checkErr == nil, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
