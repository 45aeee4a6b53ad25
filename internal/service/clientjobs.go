package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"adassure/internal/jobs"
)

// ErrJobPending is returned by JobResult while the job has not reached a
// terminal state — poll or WaitJob first.
var ErrJobPending = fmt.Errorf("service: job still pending")

// SubmitJob enqueues one scenario asynchronously (POST /v1/jobs) and
// returns the queued job's snapshot. A full job queue returns
// *QueueFullError, same as a shed synchronous run.
func (c *Client) SubmitJob(ctx context.Context, req Request) (jobs.Snapshot, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return jobs.Snapshot{}, fmt.Errorf("service: marshal request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return jobs.Snapshot{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return jobs.Snapshot{}, err
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		return jobs.Snapshot{}, fmt.Errorf("service: read response: %w", err)
	}
	if hres.StatusCode == http.StatusTooManyRequests {
		return jobs.Snapshot{}, queueFull(hres.Header)
	}
	if hres.StatusCode != http.StatusAccepted {
		return jobs.Snapshot{}, fmt.Errorf("service: POST /v1/jobs: %s: %s", hres.Status, strings.TrimSpace(string(body)))
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return jobs.Snapshot{}, fmt.Errorf("service: decode job snapshot: %w", err)
	}
	return snap, nil
}

// Job polls one job's lifecycle snapshot (GET /v1/jobs/{id}).
func (c *Client) Job(ctx context.Context, id string) (jobs.Snapshot, error) {
	body, err := c.getJSON(ctx, "/v1/jobs/"+id)
	if err != nil {
		return jobs.Snapshot{}, err
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return jobs.Snapshot{}, fmt.Errorf("service: decode job snapshot: %w", err)
	}
	return snap, nil
}

// JobResult fetches a finished job's bytes (GET /v1/jobs/{id}/result).
// The CallInfo carries the execution's cache disposition and raw body —
// byte-identical to what POST /v1/run returns for the same request.
// ErrJobPending is returned while the job is still queued or running.
func (c *Client) JobResult(ctx context.Context, id string) (*Response, *CallInfo, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, nil, err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("service: read response: %w", err)
	}
	info := &CallInfo{
		Cache:   hres.Header.Get(CacheHeader),
		Status:  hres.StatusCode,
		Body:    body,
		TraceID: hres.Header.Get(TraceHeader),
	}
	switch hres.StatusCode {
	case http.StatusConflict:
		return nil, info, ErrJobPending
	case http.StatusOK:
	default:
		return nil, info, fmt.Errorf("service: GET /v1/jobs/%s/result: %s: %s", id, hres.Status, strings.TrimSpace(string(body)))
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, info, fmt.Errorf("service: decode response: %w", err)
	}
	return &resp, info, nil
}

// CancelJob requests cancellation (DELETE /v1/jobs/{id}); applied is
// false when the job was already terminal.
func (c *Client) CancelJob(ctx context.Context, id string) (snap jobs.Snapshot, applied bool, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return jobs.Snapshot{}, false, err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return jobs.Snapshot{}, false, err
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		return jobs.Snapshot{}, false, err
	}
	if hres.StatusCode != http.StatusOK {
		return jobs.Snapshot{}, false, fmt.Errorf("service: DELETE /v1/jobs/%s: %s: %s", id, hres.Status, strings.TrimSpace(string(body)))
	}
	var doc struct {
		jobs.Snapshot
		Applied bool `json:"applied"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return jobs.Snapshot{}, false, fmt.Errorf("service: decode cancel response: %w", err)
	}
	return doc.Snapshot, doc.Applied, nil
}

// JobEvents follows one job's NDJSON event stream
// (GET /v1/jobs/{id}/events), invoking fn per event until the stream
// ends (job terminal), fn returns an error, or ctx is done.
func (c *Client) JobEvents(ctx context.Context, id string, fn func(jobs.Event) error) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(hres.Body)
		return fmt.Errorf("service: GET /v1/jobs/%s/events: %s: %s", id, hres.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(hres.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e jobs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("service: decode job event: %w", err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// WaitJob polls until the job reaches a terminal state (or ctx is done)
// and returns the final snapshot.
func (c *Client) WaitJob(ctx context.Context, id string) (jobs.Snapshot, error) {
	ticker := time.NewTicker(jobsWaitPoll)
	defer ticker.Stop()
	for {
		snap, err := c.Job(ctx, id)
		if err != nil {
			return snap, err
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return snap, ctx.Err()
		}
	}
}
