package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"adassure/internal/stream"
)

// StreamOptions are the per-session knobs Client.Stream passes in the
// query string.
type StreamOptions struct {
	// Assertions restricts the session's catalog (empty = full catalog).
	Assertions []string
	// ThresholdScale overrides the catalog threshold scale when > 0.
	ThresholdScale float64
	// Heartbeat overrides the server's default heartbeat cadence when
	// >= 0 (frames between heartbeats; 0 disables). Negative keeps the
	// server default.
	Heartbeat int
	// OnEvent, when non-nil, receives each event as it arrives — before
	// it is appended to the result. Use it to react to violations while
	// frames are still being sent.
	OnEvent func(stream.Event)
}

// StreamResult is the collected outcome of one streaming session.
type StreamResult struct {
	// Status is the HTTP status (200 once any event streamed).
	Status int
	// Events is the full event transcript in arrival order.
	Events []stream.Event
	// Cache is the X-Adassure-Cache disposition — always "bypass" for
	// streams (they are never cached or coalesced).
	Cache string
	// TraceID is the session's trace ID from X-Adassure-Trace (empty when
	// the server traces nothing).
	TraceID string
}

// Closed returns the final session-closed event, if the stream delivered
// one.
func (r *StreamResult) Closed() (stream.Event, bool) {
	for i := len(r.Events) - 1; i >= 0; i-- {
		if r.Events[i].Kind == stream.EventSessionClosed {
			return r.Events[i], true
		}
	}
	return stream.Event{}, false
}

// Stream opens one online monitoring session: frames (NDJSON, one
// core.Frame object per line) are uploaded as a chunked request body
// while the event stream is decoded from the response as it arrives —
// one full-duplex HTTP exchange. It returns once the server closes the
// event stream. A session the server refused outright (structured 4xx
// close before any event) returns the decoded error and a result with
// the HTTP status and no events.
func (c *Client) Stream(ctx context.Context, frames io.Reader, opts StreamOptions) (*StreamResult, error) {
	q := url.Values{}
	if len(opts.Assertions) > 0 {
		q.Set("assertions", strings.Join(opts.Assertions, ","))
	}
	if opts.ThresholdScale > 0 {
		q.Set("threshold_scale", strconv.FormatFloat(opts.ThresholdScale, 'g', -1, 64))
	}
	if opts.Heartbeat >= 0 {
		q.Set("heartbeat", strconv.Itoa(opts.Heartbeat))
	}
	u := c.BaseURL + "/v1/stream"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, frames)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/x-ndjson")
	hres, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()

	res := &StreamResult{
		Status:  hres.StatusCode,
		Cache:   hres.Header.Get(CacheHeader),
		TraceID: hres.Header.Get(TraceHeader),
	}
	if hres.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(hres.Body)
		return res, fmt.Errorf("service: stream: %s: %s", hres.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(hres.Body)
	sc.Buffer(make([]byte, 64*1024), stream.MaxLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e stream.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return res, fmt.Errorf("service: decode event: %w", err)
		}
		if opts.OnEvent != nil {
			opts.OnEvent(e)
		}
		res.Events = append(res.Events, e)
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("service: read events: %w", err)
	}
	return res, nil
}
