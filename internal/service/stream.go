package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"adassure/internal/core"
	"adassure/internal/stream"
	"adassure/internal/telemetry"
)

// StreamLimits bounds one /v1/stream session. The zero value applies the
// defaults; negative values disable the corresponding limit.
type StreamLimits struct {
	// MaxFrameHz caps the sustained frame ingest rate per session (token
	// bucket with one second of burst). Exceeding it is terminal: 429 if
	// nothing has streamed yet, otherwise a session-closed event with
	// code 429. Default 2000; negative = unlimited.
	MaxFrameHz float64
	// MaxSessionDuration caps a session's wall-clock lifetime. Exceeding
	// it closes the session with code 408. Default 5 minutes; negative =
	// unlimited.
	MaxSessionDuration time.Duration
	// ErrorBudget is the per-session malformed-line tolerance handed to
	// stream.Config (0 = stream default of 10, negative = none).
	ErrorBudget int
	// Heartbeat is the default heartbeat cadence in frames when the
	// request does not set one (0 = stream default off; the request query
	// can override). Default 200; negative = off.
	Heartbeat int
}

func (l *StreamLimits) defaults() {
	if l.MaxFrameHz == 0 {
		l.MaxFrameHz = 2000
	}
	if l.MaxSessionDuration == 0 {
		l.MaxSessionDuration = 5 * time.Minute
	}
	if l.Heartbeat == 0 {
		l.Heartbeat = 200
	}
}

// tokenBucket is the per-session frame-rate limiter: capacity of one
// second's worth of frames, refilled continuously.
type tokenBucket struct {
	tokens, capacity, perSec float64
	last                     time.Time
}

func newTokenBucket(hz float64, now time.Time) *tokenBucket {
	cap := hz
	if cap < 1 {
		cap = 1
	}
	return &tokenBucket{tokens: cap, capacity: cap, perSec: hz, last: now}
}

func (b *tokenBucket) allow(now time.Time) bool {
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * b.perSec
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// eventWriter writes the NDJSON event stream with a lazily committed
// status: the 200 header goes out with the first event, so a session that
// dies before producing anything can still answer with a real HTTP error
// status and the uniform JSON envelope (the "structured 4xx close").
type eventWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
	started bool
	failed  bool
	events  int64
}

func newEventWriter(w http.ResponseWriter) *eventWriter {
	ew := &eventWriter{w: w, enc: json.NewEncoder(w)}
	ew.flusher, _ = w.(http.Flusher)
	return ew
}

func (ew *eventWriter) writeEvent(e stream.Event) {
	if ew.failed {
		return
	}
	if !ew.started {
		ew.started = true
		ew.w.Header().Set("Content-Type", "application/x-ndjson")
		ew.w.WriteHeader(http.StatusOK)
	}
	if err := ew.enc.Encode(&e); err != nil {
		ew.failed = true
		return
	}
	ew.events++
	if ew.flusher != nil {
		ew.flusher.Flush()
	}
}

// streamParams are the per-session knobs a client passes in the query
// string of POST /v1/stream.
type streamParams struct {
	assertions     []string
	thresholdScale float64
	heartbeat      int
}

func parseStreamParams(r *http.Request, limits StreamLimits) (streamParams, error) {
	p := streamParams{heartbeat: limits.Heartbeat}
	q := r.URL.Query()
	if raw := q.Get("assertions"); raw != "" {
		for _, id := range strings.Split(raw, ",") {
			id = strings.TrimSpace(id)
			if id != "" {
				p.assertions = append(p.assertions, id)
			}
		}
	}
	if raw := q.Get("threshold_scale"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return p, fmt.Errorf("threshold_scale must be a positive finite number, got %q", raw)
		}
		p.thresholdScale = v
	}
	if raw := q.Get("heartbeat"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return p, fmt.Errorf("heartbeat must be a non-negative frame count, got %q", raw)
		}
		p.heartbeat = v
	}
	return p, nil
}

// handleStream is the streaming monitoring endpoint: chunked NDJSON
// frames in, NDJSON events out, over one full-duplex HTTP exchange. The
// session enforces the configured limits — frame rate, wall-clock
// duration and malformed-line budget — and always ends with either a
// session-closed event on the open stream or, when nothing has streamed
// yet, a structured HTTP error.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	// Streams are never cached or coalesced; say so the same way /v1/run
	// reports its disposition.
	w.Header().Set(CacheHeader, "bypass")
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody("service: shutting down"))
		return
	}
	s.streamWG.Add(1)
	defer s.streamWG.Done()
	s.streamSessions.Inc()

	sp := telemetry.SpanFrom(r.Context())
	limits := s.cfg.Stream
	params, err := parseStreamParams(r, limits)
	if err != nil {
		s.badReqs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody("invalid stream request: "+err.Error()))
		return
	}
	if sp.Enabled() {
		sp.SetAttr("assertions", strings.Join(params.assertions, ","))
		sp.SetInt("heartbeat", int64(params.heartbeat))
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "stream session open",
		slog.String("trace_id", sp.TraceID().String()),
		slog.String("span_id", sp.SpanID().String()))

	ew := newEventWriter(w)
	suppress := false
	sess, err := stream.New(stream.Config{
		Catalog: core.CatalogConfig{
			ThresholdScale:     params.thresholdScale,
			IncludeGroundTruth: true,
		},
		Assertions:  params.assertions,
		Heartbeat:   max(params.heartbeat, 0),
		ErrorBudget: limits.ErrorBudget,
		Obs:         s.reg,
		Sink: func(e stream.Event) {
			if !suppress {
				ew.writeEvent(e)
			}
		},
	})
	if err != nil {
		s.badReqs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody("invalid stream request: "+err.Error()))
		return
	}

	// HTTP/1.1 servers normally drain the request body before replying;
	// events must interleave with ingest, so switch to full duplex and
	// drop any server-wide write deadline for the session's lifetime.
	// Both calls are best-effort (recorders and HTTP/2 differ).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	_ = rc.SetWriteDeadline(time.Time{})

	// closeLog stamps the session outcome on the request span and emits
	// the paired session-close slog record.
	closeLog := func(reason string, st stream.Stats) {
		if sp.Enabled() {
			sp.SetAttr("close_reason", reason)
			sp.SetInt("frames", st.Frames)
			sp.SetInt("events", ew.events)
			sp.SetInt("violations", st.Violations)
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "stream session closed",
			slog.String("trace_id", sp.TraceID().String()),
			slog.String("span_id", sp.SpanID().String()),
			slog.String("reason", reason),
			slog.Int64("frames", st.Frames),
			slog.Int64("events", ew.events),
			slog.Int64("violations", st.Violations))
	}

	// finish ends the session exactly once. With events already on the
	// wire the close arrives as the final NDJSON event (carrying the
	// status code for terminal limit breaches); before any event, an
	// error close degrades to a plain HTTP error response instead.
	finish := func(reason string, code int, msg string) {
		if code >= 400 && !ew.started {
			suppress = true
			closeLog(reason, sess.CloseWith(reason, code))
			s.badReqs.Inc()
			writeJSON(w, code, errorBody(msg))
			return
		}
		closeLog(reason, sess.CloseWith(reason, code))
	}

	// The reader goroutine owns r.Body; lines flow through a channel so
	// the handler can multiplex input with deadlines and drain. The done
	// channel guarantees the goroutine exits with the handler (no leak);
	// the server closes r.Body afterwards, unblocking any pending Read.
	lines := make(chan []byte)
	readErr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64*1024), stream.MaxLineBytes)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case lines <- line:
			case <-done:
				return
			}
		}
		select {
		case readErr <- sc.Err():
		case <-done:
		}
		close(lines)
	}()

	var bucket *tokenBucket
	if limits.MaxFrameHz > 0 {
		bucket = newTokenBucket(limits.MaxFrameHz, time.Now())
	}
	var deadline <-chan time.Time
	if limits.MaxSessionDuration > 0 {
		tmr := time.NewTimer(limits.MaxSessionDuration)
		defer tmr.Stop()
		deadline = tmr.C
	}

	for {
		select {
		case line, ok := <-lines:
			if !ok {
				if err := <-readErr; err != nil {
					finish(stream.ReasonClient, http.StatusBadRequest, "read frames: "+err.Error())
					return
				}
				finish(stream.ReasonEOF, 0, "")
				return
			}
			if bucket != nil && len(bytes.TrimSpace(line)) != 0 && !bucket.allow(time.Now()) {
				s.shedded.Inc()
				finish("rate-limit", http.StatusTooManyRequests,
					fmt.Sprintf("frame rate exceeds %g Hz session limit", limits.MaxFrameHz))
				return
			}
			if err := sess.IngestLine(line); stream.Terminal(err) {
				finish(stream.ReasonBudget, http.StatusBadRequest, err.Error())
				return
			}
		case <-deadline:
			finish(stream.ReasonDuration, http.StatusRequestTimeout,
				fmt.Sprintf("session exceeded %s duration limit", limits.MaxSessionDuration))
			return
		case <-r.Context().Done():
			// Client went away mid-session; nothing left to write to.
			suppress = true
			closeLog(stream.ReasonClient, sess.CloseWith(stream.ReasonClient, 0))
			return
		case <-s.streamCtx.Done():
			// Graceful drain: the close event is delivered on the open
			// stream (or as a structured 503 if nothing streamed yet).
			finish(stream.ReasonDrain, http.StatusServiceUnavailable, "service: shutting down")
			return
		}
	}
}
