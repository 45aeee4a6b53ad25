package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adassure/internal/obs"
)

// waitTerminal polls a job to a terminal state with a deadline.
func waitTerminal(t *testing.T, j *Job, within time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if st := j.State(); st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %s", j.ID, j.State(), within)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobLifecycleDone(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{
		Workers: 2,
		Obs:     reg,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			return Result{Body: []byte("body-" + job.Key), Status: 200, Cache: "miss"}, nil
		},
	})
	defer m.Close(context.Background())

	j, err := m.Submit("payload", "k1", "trace1")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(j.ID) != 32 {
		t.Fatalf("job ID %q is not 32 hex chars", j.ID)
	}
	if st := waitTerminal(t, j, 2*time.Second); st != StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	res, ok := j.ResultIfDone()
	if !ok || string(res.Body) != "body-k1" || res.Status != 200 || res.Cache != "miss" {
		t.Fatalf("result = %+v ok=%v", res, ok)
	}
	snap := j.Snapshot()
	if snap.State != StateDone || snap.Key != "k1" || snap.TraceID != "trace1" || snap.Cache != "miss" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := reg.Counter("jobs.done").Value(); got != 1 {
		t.Fatalf("jobs.done = %d", got)
	}
	// Event log: queued → started → done, seq 1..3.
	events, follow := j.EventsSince(0)
	if follow != nil {
		t.Fatal("terminal job returned a follow channel")
	}
	kinds := []string{}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("seq gap at %d: %+v", i, e)
		}
		kinds = append(kinds, e.Kind)
	}
	want := []string{EventQueued, EventStarted, EventDone}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
}

func TestJobFailureAfterRetries(t *testing.T) {
	reg := obs.NewRegistry()
	var calls atomic.Int64
	transient := fmt.Errorf("%w: backend busy", ErrRetryable)
	m := NewManager(Config{
		Workers:    1,
		Attempts:   3,
		RetryDelay: time.Millisecond,
		Obs:        reg,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			calls.Add(1)
			return Result{Body: []byte(`{"error":"busy"}`), Status: 429}, transient
		},
	})
	defer m.Close(context.Background())

	j, _ := m.Submit(nil, "k", "")
	if st := waitTerminal(t, j, 2*time.Second); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("exec attempts = %d, want 3", got)
	}
	if got := reg.Counter("jobs.retries").Value(); got != 2 {
		t.Fatalf("jobs.retries = %d, want 2", got)
	}
	snap := j.Snapshot()
	if snap.Attempts != 3 || snap.Error == "" || snap.Status != 429 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The error body is exposed like a result for the /result endpoint.
	res, ok := j.ResultIfDone()
	if !ok || res.Status != 429 {
		t.Fatalf("failed-job result = %+v ok=%v", res, ok)
	}
}

func TestNonRetryableFailsFirstAttempt(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(Config{
		Workers:    1,
		Attempts:   5,
		RetryDelay: time.Millisecond,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			calls.Add(1)
			return Result{}, errors.New("permanent") // does not wrap ErrRetryable
		},
	})
	defer m.Close(context.Background())
	j, _ := m.Submit(nil, "k", "")
	if st := waitTerminal(t, j, 2*time.Second); st != StateFailed {
		t.Fatalf("state = %s", st)
	}
	if calls.Load() != 1 {
		t.Fatalf("attempts = %d, want 1", calls.Load())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Workers:    1,
		QueueDepth: 8,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			<-block
			return Result{Status: 200}, nil
		},
	})
	defer func() { close(block); m.Close(context.Background()) }()

	// First job occupies the single worker; the second stays queued.
	m.Submit(nil, "running", "")
	j2, _ := m.Submit(nil, "queued", "")
	time.Sleep(10 * time.Millisecond)

	snap, ok, err := m.Cancel(j2.ID)
	if err != nil || !ok || snap.State != StateCancelled {
		t.Fatalf("Cancel queued: snap=%+v ok=%v err=%v", snap, ok, err)
	}
	// The dispatcher must skip it, not run it.
	time.Sleep(10 * time.Millisecond)
	if st := j2.State(); st != StateCancelled {
		t.Fatalf("state after skip = %s", st)
	}
	if _, ok := j2.ResultIfDone(); ok {
		t.Fatal("cancelled job reported a result")
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			close(started)
			<-ctx.Done()
			return Result{}, ctx.Err()
		},
	})
	defer m.Close(context.Background())

	j, _ := m.Submit(nil, "k", "")
	<-started
	if _, ok, err := m.Cancel(j.ID); err != nil || !ok {
		t.Fatalf("Cancel running: ok=%v err=%v", ok, err)
	}
	if st := waitTerminal(t, j, 2*time.Second); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m := NewManager(Config{Exec: func(context.Context, *Job) (Result, error) { return Result{}, nil }})
	defer m.Close(context.Background())
	if _, _, err := m.Cancel("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown: %v, want ErrNotFound", err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	block := make(chan struct{})
	reg := obs.NewRegistry()
	m := NewManager(Config{
		Workers:    1,
		QueueDepth: 2,
		Obs:        reg,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			<-block
			return Result{Status: 200}, nil
		},
	})
	defer func() { close(block); m.Close(context.Background()) }()

	// 1 running + 2 queued fit; the 4th must be rejected.
	var lastErr error
	for i := 0; i < 4; i++ {
		_, lastErr = m.Submit(nil, fmt.Sprint(i), "")
		if i < 3 && lastErr != nil {
			t.Fatalf("Submit %d: %v", i, lastErr)
		}
		if i == 0 {
			// Let the worker pick up the first job so capacity is deterministic.
			deadline := time.Now().Add(time.Second)
			for m.Running() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("4th submit: %v, want ErrQueueFull", lastErr)
	}
	if reg.Counter("jobs.rejected").Value() != 1 {
		t.Fatalf("jobs.rejected = %d", reg.Counter("jobs.rejected").Value())
	}
}

func TestRetentionEvictsOldestFinished(t *testing.T) {
	m := NewManager(Config{
		Workers:   2,
		Retention: 4,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			return Result{Status: 200}, nil
		},
	})
	defer m.Close(context.Background())

	var ids []string
	for i := 0; i < 10; i++ {
		j, err := m.Submit(nil, fmt.Sprint(i), "")
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitTerminal(t, j, 2*time.Second)
		ids = append(ids, j.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest finished job survived retention")
	}
	if _, ok := m.Get(ids[9]); !ok {
		t.Fatal("newest finished job evicted")
	}
}

// TestEventsFollow subscribes mid-run and receives the remaining events
// through the notify channel.
func TestEventsFollow(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			close(started)
			<-release
			return Result{Status: 200, Cache: "miss"}, nil
		},
	})
	defer m.Close(context.Background())

	j, _ := m.Submit(nil, "k", "")
	<-started

	events, follow := j.EventsSince(0)
	if len(events) != 2 { // queued, started
		t.Fatalf("events mid-run = %d, want 2", len(events))
	}
	if follow == nil {
		t.Fatal("running job returned nil follow channel")
	}
	close(release)
	select {
	case <-follow:
	case <-time.After(2 * time.Second):
		t.Fatal("follow channel never fired")
	}
	rest, follow2 := j.EventsSince(events[len(events)-1].Seq)
	if len(rest) != 1 || rest[0].Kind != EventDone {
		t.Fatalf("tail events = %+v", rest)
	}
	if follow2 != nil {
		t.Fatal("terminal job still follows")
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	var ran atomic.Int64
	m := NewManager(Config{
		Workers: 1,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
			return Result{Status: 200}, nil
		},
	})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := m.Submit(nil, fmt.Sprint(i), "")
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran %d jobs through Close, want 5 (queue drains)", ran.Load())
	}
	if _, err := m.Submit(nil, "late", ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s state %s after drain", j.ID, st)
		}
	}
}

func TestConcurrentSubmitPollCancel(t *testing.T) {
	m := NewManager(Config{
		Workers:    4,
		QueueDepth: 256,
		Retention:  512,
		Exec: func(ctx context.Context, job *Job) (Result, error) {
			return Result{Status: 200, Body: []byte(job.Key)}, nil
		},
	})
	defer m.Close(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := m.Submit(nil, fmt.Sprintf("%d-%d", w, i), "")
				if err != nil {
					continue // queue-full under contention is legal
				}
				m.Get(j.ID)
				j.Snapshot()
				if i%5 == 0 {
					m.Cancel(j.ID)
				}
			}
		}(w)
	}
	wg.Wait()
}
