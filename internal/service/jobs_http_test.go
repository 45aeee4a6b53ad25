package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"adassure/internal/jobs"
)

// TestJobResultMatchesSyncRunByteForByte is the differential acceptance
// test of the async tier: a job's result bytes are identical to what the
// synchronous /v1/run path produces for the same request, the job fills
// the same cache entry (so the sync run afterwards is a hit), and exactly
// one simulation happens.
func TestJobResultMatchesSyncRunByteForByte(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	snap, err := c.SubmitJob(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if snap.State != jobs.StateQueued && snap.State != jobs.StateRunning {
		t.Fatalf("submitted job state %q", snap.State)
	}
	if snap.Key == "" {
		t.Fatal("job snapshot has no content-address key")
	}
	final, err := c.WaitJob(ctx, snap.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %q (%s), want done", final.State, final.Error)
	}
	if final.Cache != "miss" {
		t.Fatalf("first job cache disposition %q, want miss", final.Cache)
	}
	resp, info, err := c.JobResult(ctx, snap.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if info.Status != http.StatusOK {
		t.Fatalf("result status %d", info.Status)
	}
	if len(resp.Violations) == 0 {
		t.Fatal("job result carries no violations")
	}

	// The synchronous path must now hit the entry the job cached, with
	// byte-identical content.
	_, syncInfo, err := c.Run(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("sync run: %v", err)
	}
	if syncInfo.Cache != "hit" {
		t.Fatalf("sync run after job: disposition %q, want hit", syncInfo.Cache)
	}
	if !bytes.Equal(info.Body, syncInfo.Body) {
		t.Fatal("job result bytes differ from /v1/run bytes")
	}

	// A second submission of the same request is a new job but a cache
	// hit — still exactly one simulation in total.
	snap2, err := c.SubmitJob(ctx, spoofRequest())
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if snap2.ID == snap.ID {
		t.Fatal("two submissions shared a job ID")
	}
	final2, err := c.WaitJob(ctx, snap2.ID)
	if err != nil {
		t.Fatalf("second wait: %v", err)
	}
	if final2.Cache != "hit" {
		t.Fatalf("second job cache disposition %q, want hit", final2.Cache)
	}
	if got := s.Registry().Counter("sim.runs").Value(); got != 1 {
		t.Fatalf("sim.runs = %d, want 1", got)
	}
	if got := s.Registry().Counter("jobs.done").Value(); got != 2 {
		t.Fatalf("jobs.done = %d, want 2", got)
	}
}

// TestJobBatchOverSharedKeys: 12 jobs submitted concurrently over 6
// distinct keys all end done, and the shared keys cost exactly 6
// simulations — the rest are cache hits or coalesced onto an in-flight
// run.
func TestJobBatchOverSharedKeys(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	const n, keys = 12, 6

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := c.SubmitJob(ctx, Request{Duration: 5, Seed: int64(1 + i%keys)})
			if err != nil {
				t.Errorf("job %d: submit: %v", i, err)
				return
			}
			final, err := c.WaitJob(ctx, snap.ID)
			if err != nil {
				t.Errorf("job %d: wait: %v", i, err)
				return
			}
			if final.State != jobs.StateDone {
				t.Errorf("job %d ended %q (%s), want done", i, final.State, final.Error)
			}
		}(i)
	}
	wg.Wait()
	if got := s.Registry().Counter("sim.runs").Value(); got != keys {
		t.Fatalf("sim.runs = %d, want %d", got, keys)
	}
	if got := s.Registry().Counter("jobs.done").Value(); got != n {
		t.Fatalf("jobs.done = %d, want %d", got, n)
	}
}

// TestJobEventsStreamFollowsToTerminal: the NDJSON event stream replays
// the queued event and follows the job to its done event with strictly
// increasing sequence numbers.
func TestJobEventsStreamFollowsToTerminal(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	snap, err := c.SubmitJob(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var events []jobs.Event
	if err := c.JobEvents(ctx, snap.ID, func(e jobs.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatalf("events: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least queued/started/done", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[0].Kind != jobs.EventQueued {
		t.Fatalf("first event %q, want queued", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != jobs.EventDone || last.State != jobs.StateDone {
		t.Fatalf("final event %q/%q, want done/done", last.Kind, last.State)
	}
}

// TestJobQueueFullSheds: with one dispatcher and a one-slot queue, a
// burst of distinct jobs is shed with the typed 429 answer.
func TestJobQueueFullSheds(t *testing.T) {
	_, c := newTestServer(t, Config{
		Workers: 1,
		Jobs:    JobsLimits{Workers: 1, QueueDepth: 1},
	})
	ctx := context.Background()

	var accepted []string
	var shed int
	for i := 0; i < 8; i++ {
		req := spoofRequest()
		req.Seed = int64(100 + i) // distinct keys: no coalescing shortcut
		snap, err := c.SubmitJob(ctx, req)
		var qf *QueueFullError
		switch {
		case errors.As(err, &qf):
			if qf.RetryAfter <= 0 {
				t.Fatal("429 without a Retry-After hint")
			}
			shed++
		case err != nil:
			t.Fatalf("submit %d: %v", i, err)
		default:
			accepted = append(accepted, snap.ID)
		}
	}
	if shed == 0 {
		t.Fatal("burst of 8 jobs into a 1-deep queue shed nothing")
	}
	for _, id := range accepted {
		if _, err := c.WaitJob(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
}

// TestJobCancelAndNotFound: cancelling a finished job applies nothing;
// unknown IDs answer 404 on every job route.
func TestJobCancelAndNotFound(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	snap, err := c.SubmitJob(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.WaitJob(ctx, snap.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	got, applied, err := c.CancelJob(ctx, snap.ID)
	if err != nil {
		t.Fatalf("cancel finished job: %v", err)
	}
	if applied {
		t.Fatal("cancel of a finished job reported applied")
	}
	if got.State != jobs.StateDone {
		t.Fatalf("finished job state after cancel %q", got.State)
	}

	if _, err := c.Job(ctx, "deadbeefdeadbeefdeadbeefdeadbeef"); err == nil {
		t.Fatal("unknown job GET did not fail")
	}
	if _, _, err := c.JobResult(ctx, "deadbeefdeadbeefdeadbeefdeadbeef"); err == nil {
		t.Fatal("unknown job result did not fail")
	}
	if _, _, err := c.CancelJob(ctx, "deadbeefdeadbeefdeadbeefdeadbeef"); err == nil {
		t.Fatal("unknown job cancel did not fail")
	}
}

// TestJobsDisabled: with the tier off, /v1/jobs answers 404.
func TestJobsDisabled(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, Jobs: JobsLimits{Disable: true}})
	if _, err := c.SubmitJob(context.Background(), Request{Duration: 10}); err == nil {
		t.Fatal("submit succeeded with the job tier disabled")
	}
}

// TestJobTraceCorrelation: the job snapshot carries the submitting
// request's trace ID, and the trace gains the job.execute child.
func TestJobTraceCorrelation(t *testing.T) {
	_, c := newTestServer(t, tracedConfig(2))
	ctx := context.Background()

	snap, err := c.SubmitJob(ctx, Request{Duration: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if snap.TraceID == "" {
		t.Fatal("job snapshot has no trace ID")
	}
	if _, err := c.WaitJob(ctx, snap.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := c.Trace(ctx, snap.TraceID)
		if err == nil && bytes.Contains(body, []byte("job.execute")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never gained a job.execute span (err %v)", snap.TraceID, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
