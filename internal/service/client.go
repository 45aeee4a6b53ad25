package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"adassure/internal/obs"
)

// Client is the typed Go client of the scenario-execution service.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

// NewClient builds a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// QueueFullError is the typed form of a 429 backpressure answer.
type QueueFullError struct {
	// RetryAfter is the server's hint before retrying.
	RetryAfter time.Duration
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: queue full, retry after %s", e.RetryAfter)
}

// queueFull types a 429 answer, reading its Retry-After hint in whole
// seconds and falling back to one second when the hint is absent or bad.
func queueFull(h http.Header) *QueueFullError {
	retry := time.Second
	if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs > 0 {
		retry = time.Duration(secs) * time.Second
	}
	return &QueueFullError{RetryAfter: retry}
}

// CallInfo reports transport-level facts about one Run call.
type CallInfo struct {
	// Cache is the X-Adassure-Cache disposition: "hit", "miss" or
	// "coalesced".
	Cache string
	// Status is the HTTP status code.
	Status int
	// Body is the raw response body — byte-identical across cache hits
	// and fresh runs of the same request.
	Body []byte
	// TraceID is this call's own trace ID from the X-Adassure-Trace
	// header (empty when the server traces nothing). The body's trace_id
	// can differ: it names the run that produced the bytes.
	TraceID string
}

// Run executes (or fetches from cache) one scenario on the server.
func (c *Client) Run(ctx context.Context, req Request) (*Response, *CallInfo, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, nil, fmt.Errorf("service: marshal request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
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
	if hres.StatusCode == http.StatusTooManyRequests {
		return nil, info, queueFull(hres.Header)
	}
	if hres.StatusCode != http.StatusOK {
		return nil, info, fmt.Errorf("service: %s: %s", hres.Status, strings.TrimSpace(string(body)))
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, info, fmt.Errorf("service: decode response: %w", err)
	}
	return &resp, info, nil
}

// Metrics fetches the server's exposition from /metrics and parses it
// with the strict reader obs.ParseProm.
func (c *Client) Metrics(ctx context.Context) (*obs.PromDoc, error) {
	body, err := c.getJSON(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseProm(bytes.NewReader(body))
}

// Healthz checks liveness; it fails on any non-200 answer.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.getJSON(ctx, "/healthz")
	return err
}

// Readyz probes readiness: ready==false with a nil error means the
// server answered 503 deliberately (draining or saturated); status is
// the reported state string either way.
func (c *Client) Readyz(ctx context.Context) (ready bool, status string, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return false, "", err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return false, "", err
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		return false, "", err
	}
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return false, "", fmt.Errorf("service: decode readyz: %w", err)
	}
	switch hres.StatusCode {
	case http.StatusOK:
		return true, doc.Status, nil
	case http.StatusServiceUnavailable:
		return false, doc.Status, nil
	default:
		return false, doc.Status, fmt.Errorf("service: GET /readyz: %s", hres.Status)
	}
}

// Trace fetches one trace's span export from /debug/traces/{id}.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	return c.getJSON(ctx, "/debug/traces/"+id)
}

func (c *Client) getJSON(ctx context.Context, path string) ([]byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		return nil, err
	}
	if hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: GET %s: %s: %s", path, hres.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
