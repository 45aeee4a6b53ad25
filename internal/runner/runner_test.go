package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapIndexOrdered checks the core determinism contract: results land
// at their job index for every worker count, even when jobs finish out of
// order.
func TestMapIndexOrdered(t *testing.T) {
	jobs := make([]int, 64)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{1, 2, 4, 7, 64, 200} {
		out, err := Map(Options{Workers: workers}, jobs, func(_ context.Context, idx, job int) (string, error) {
			// Stagger completion so later indices often finish first.
			time.Sleep(time.Duration((job%5)*50) * time.Microsecond)
			return fmt.Sprintf("job-%d", job), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(jobs))
		}
		for i, s := range out {
			if want := fmt.Sprintf("job-%d", i); s != want {
				t.Errorf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

// TestRunMatchesSequential checks workers=N output equals the workers=1
// output element-for-element.
func TestRunMatchesSequential(t *testing.T) {
	fn := func(_ context.Context, i int) (int, error) { return i*i + 3, nil }
	seq, err := Run(Options{Workers: 1}, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Options{Workers: runtime.GOMAXPROCS(0) + 3}, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("out[%d]: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

// TestPanicRecovery checks a panicking job becomes a structured *JobError
// instead of crashing the process, and that the campaign reports it.
func TestPanicRecovery(t *testing.T) {
	jobs := []int{0, 1, 2, 3}
	_, err := Map(Options{Workers: 2}, jobs, func(_ context.Context, _, job int) (int, error) {
		if job == 2 {
			panic("scenario blew up")
		}
		return job, nil
	})
	if err == nil {
		t.Fatal("want error from panicking job")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T: %v", err, err)
	}
	if !je.Panicked {
		t.Error("JobError.Panicked = false, want true")
	}
	if je.Index != 2 {
		t.Errorf("JobError.Index = %d, want 2", je.Index)
	}
	if !strings.Contains(err.Error(), "scenario blew up") {
		t.Errorf("error %q does not carry the panic value", err)
	}
}

// TestFirstErrorWins checks the reported failure is the lowest-indexed
// one, independent of completion order.
func TestFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Options{Workers: 1}, 8, func(_ context.Context, i int) (int, error) {
		if i >= 3 {
			return 0, boom
		}
		return i, nil
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("want *JobError, got %T", err)
	}
	if je.Index != 3 {
		t.Errorf("JobError.Index = %d, want 3", je.Index)
	}
	if !errors.Is(err, boom) {
		t.Error("errors.Is(err, boom) = false, want true")
	}
}

// TestErrorCancelsPending checks that after one job fails, undispatched
// jobs are skipped rather than executed.
func TestErrorCancelsPending(t *testing.T) {
	var ran int64
	_, err := Run(Options{Workers: 1}, 100, func(_ context.Context, i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return 0, errors.New("fail fast")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := atomic.LoadInt64(&ran); n != 1 {
		t.Errorf("%d jobs ran after the first failure, want 1", n)
	}
}

// TestContextCancellation checks an already-cancelled context stops the
// pool before any job runs and surfaces context.Canceled.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	_, err := Run(Options{Workers: 4, Context: ctx}, 16, func(_ context.Context, i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := atomic.LoadInt64(&ran); n != 0 {
		t.Errorf("%d jobs ran under a cancelled context, want 0", n)
	}
}

// TestMidRunCancellation checks cancelling while jobs are in flight stops
// dispatch of the remainder.
func TestMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	_, err := Run(Options{Workers: 1, Context: ctx}, 100, func(_ context.Context, i int) (int, error) {
		if atomic.AddInt64(&ran, 1) == 3 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := atomic.LoadInt64(&ran); n != 3 {
		t.Errorf("%d jobs ran, want 3 (dispatch stops after cancel)", n)
	}
}

// TestEmptyAndDefaults checks the zero-job and zero-value-Options paths.
func TestEmptyAndDefaults(t *testing.T) {
	out, err := Map(Options{}, nil, func(_ context.Context, _ int, _ struct{}) (int, error) {
		t.Error("job function ran for an empty grid")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: out=%v err=%v", out, err)
	}
	// Zero-value Options must fall back to GOMAXPROCS workers and a
	// background context.
	res, err := Run(Options{}, 3, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[2] != 2 {
		t.Fatalf("defaults run: got %v", res)
	}
}

// TestPartialResultsOnError checks the successful slots survive a
// failure elsewhere in the grid.
func TestPartialResultsOnError(t *testing.T) {
	out, err := Run(Options{Workers: 1}, 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("nope")
		}
		return i + 10, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out[0] != 10 || out[1] != 11 {
		t.Errorf("completed results lost: %v", out)
	}
}
