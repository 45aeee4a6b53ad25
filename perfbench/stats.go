package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; xs is not modified. It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio[T int | int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is a snapshot of the process's clocks and allocation counter.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // heap bytes allocated since the process started
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: mem.TotalAlloc,
	}
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// trial is one part of a workload's measured ops: a sweep chunk, with every
// run of it, or a segment of an open-loop sequence.
type trial struct {
	latencyMS []float64 // one per successful op
	good      int       // successful ops within the workload's latency limit
	ops       int
	wall, cpu time.Duration
	alloc     uint64 // heap bytes
}

// add counts the stretch between two usage snapshots into t.
func (t *trial) add(begin, end usage) {
	t.wall += end.wall.Sub(begin.wall)
	t.cpu += end.cpu - begin.cpu
	t.alloc += end.alloc - begin.alloc
}

// reportEndToEnd writes the end-to-end metrics into rep. Goodput, CPU and
// allocation are taken per trial and reported as the median over trials,
// so a burst of load from elsewhere on the machine moves one trial rather
// than the result. Latency quantiles are over every successful op of the
// run: on sweep a trial's 28 scenario times are too few for a steady
// median. The p95 and p99 go to the text report only: on a shared two-core
// machine serve-hot's tail moved more from run to run than any bound the
// benchmark may set.
func reportEndToEnd(rep *report, setup []float64, trials []trial) {
	vals := rep.values
	perTrial := func(f func(t *trial) float64) float64 {
		xs := make([]float64, len(trials))
		for i := range trials {
			xs[i] = f(&trials[i])
		}
		return median(xs)
	}
	var latencyMS []float64
	for i := range trials {
		latencyMS = append(latencyMS, trials[i].latencyMS...)
	}
	vals["setup_s"] = median(setup)
	vals["latency_p50_ms"] = quantile(latencyMS, 0.50)
	vals["goodput_ops_s"] = perTrial(func(t *trial) float64 { return float64(t.good) / t.wall.Seconds() })
	vals["cpu_ms_per_op"] = perTrial(func(t *trial) float64 { return ms(t.cpu) / float64(t.ops) })
	vals["alloc_kb_per_op"] = perTrial(func(t *trial) float64 { return float64(t.alloc) / 1024 / float64(t.ops) })
	vals["max_rss_mb"] = maxRSSMB()
	rep.notes = append(rep.notes, fmt.Sprintf("latency_p95_ms %.4g ms, latency_p99_ms %.4g ms (over %d ops)",
		quantile(latencyMS, 0.95), quantile(latencyMS, 0.99), len(latencyMS)))
}
