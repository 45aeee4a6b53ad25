//go:build linux

package adassure

import (
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"adassure/internal/core"
	"adassure/internal/sim"
	"adassure/internal/track"
)

// obsBoundPairs is the number of alternating obs=off/obs=on pairs
// TestObsOverheadBound times. On a shared 2-core x86-64 container one
// pair's on/off ratio spreads with an interquartile range of 3–7% on an
// idle machine and 5–15% while `go test ./...` runs other packages beside
// it, so the median of 101 pairs sits within about 1% of its centre: the
// measured overhead of 1–3% reads below the 5% bound, and the 29% of
// per-frame timing reads far above it. If the test flakes, add pairs: the
// bound stays where it is.
const obsBoundPairs = 101

// obsOverheadBound is the largest overhead an attached metrics registry
// may add to a run: the median on/off CPU-time ratio minus one.
const obsOverheadBound = 0.05

// TestObsOverheadBound checks the observability bound DESIGN.md §9 states:
// attaching a metrics registry (sampled step and assertion timing, exact
// counters) costs a 70 s urban-loop run at most 5% of its CPU time. It
// times the run's thread CPU clock, not wall time, so the cores other
// processes take do not land on either side. Runs alternate which side
// goes first, so drift in the machine's speed lands on both sides. The
// goroutine is locked to its thread, so both reads of the clock see one
// thread, and every run starts after a collection, so the previous run's
// garbage does not land on one side. The registry is built once and
// shared by every obs=on run, as a long-lived process holds one. Timing
// under the race detector measures the detector, so the test skips
// there, and under -short.
func TestObsOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("times dozens of full-length runs")
	}
	if raceEnabled {
		t.Skip("timing under the race detector measures the detector")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tr, err := track.UrbanLoop(6)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	run := func(reg *Registry) time.Duration {
		mon := core.NewCatalogMonitor(core.CatalogConfig{IncludeGroundTruth: true})
		runtime.GC()
		start := threadCPUTime(t)
		if _, err := sim.Run(sim.Config{
			Track: tr, Controller: "pure-pursuit", Seed: 1,
			Duration: 70, Monitor: mon, DisableTrace: true, Obs: reg,
		}); err != nil {
			t.Fatal(err)
		}
		return threadCPUTime(t) - start
	}
	run(nil)
	run(reg)
	ratios := make([]float64, obsBoundPairs)
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off, on = run(nil), run(reg)
		} else {
			on, off = run(reg), run(nil)
		}
		ratios[i] = on.Seconds() / off.Seconds()
	}
	sort.Float64s(ratios)
	n := len(ratios)
	median, q1, q3 := ratios[n/2], ratios[n/4], ratios[3*n/4]
	t.Logf("obs=on/obs=off over %d pairs: median %.4f, quartiles %.4f–%.4f", n, median, q1, q3)
	if median-1 > obsOverheadBound {
		t.Errorf("an attached registry costs %+.1f%% of a run (median of %d pairs), bound %.0f%%",
			100*(median-1), n, 100*obsOverheadBound)
	}
}

// threadCPUTime reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID), which, unlike wall time, does not run while
// the thread waits for a core other processes hold.
func threadCPUTime(t *testing.T) time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		t.Fatalf("clock_gettime: %v", errno)
	}
	return time.Duration(ts.Nano())
}
