package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"adassure/internal/runner"
	"adassure/internal/telemetry"
)

// keyed is one canonical request of a keyed kind (/v1/run, /v1/mutate,
// /v1/search): a content address, and the execution that produces the
// response body for it. Every kind rides the same pipeline:
//
//	decode → canonicalize → LRU → store → single-flight → pool → publish
//
// execute does the work under the `execute` span and returns the step
// that encodes its result, which runs after that span (and the run-time
// histogram) has closed. Both report failures with the kind's error
// prefix ("run scenario: ", "encode report: ", …); the pipeline maps them
// to a status in one place (errorStatus).
type keyed interface {
	Key() string
	execute(ctx context.Context, s *Server, ex *telemetry.Span) (encode func() ([]byte, error), err error)
}

// decodable is the wire form of a keyed kind: the document a client posts,
// canonicalized into the request that is keyed and executed.
type decodable[R keyed] interface {
	keyed
	Canonicalize(maxDuration float64) (R, error)
}

// decodeKeyed reads and canonicalizes one request document, answering 400
// with the uniform error envelope (and returning false) when it is
// malformed or invalid.
func decodeKeyed[R decodable[R]](s *Server, w http.ResponseWriter, r *http.Request) (R, bool) {
	var req R
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.badReqs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody("decode request: "+err.Error()))
		return req, false
	}
	canon, err := req.Canonicalize(s.cfg.MaxDuration)
	if err != nil {
		s.badReqs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody("invalid request: "+err.Error()))
		return canon, false
	}
	return canon, true
}

// handleKeyed is the synchronous endpoint of one keyed kind: decode,
// run the keyed pipeline, answer with the body and its cache disposition.
func handleKeyed[R decodable[R]](s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		sp := telemetry.SpanFrom(r.Context())
		start := time.Now()
		defer func() {
			s.reqNS.ObserveEx(time.Since(start).Nanoseconds(), sp.TraceID().String())
		}()

		canon, ok := decodeKeyed[R](s, w, r)
		if !ok {
			return
		}
		body, status, disposition, err := runKeyed(s, r.Context(), sp, canon, canon.Key())
		if err != nil {
			// The client went away; the run (if any) continues and will
			// fill the cache for the next asker.
			return
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		}
		if status == http.StatusOK {
			w.Header().Set(CacheHeader, disposition)
		}
		writeJSON(w, status, body)
	}
}

// runKeyed is the execution core shared by the synchronous endpoints and
// the async job tier: serve from the in-memory cache, fall through to the
// persistent store, else coalesce on the single-flight group and execute
// on the pool. It blocks until a body is available or ctx is done (the
// only case that returns a non-nil error — the run, if one started,
// continues and fills the cache for the next asker).
//
// It is generic over the concrete request type so a cache hit never boxes
// the request; the conversion to keyed happens only on submission.
func runKeyed[R keyed](s *Server, ctx context.Context, sp *telemetry.Span, req R, key string) (body []byte, status int, disposition string, err error) {
	lookup := sp.StartChild("cache.lookup")
	if body, ok := s.cache.get(key); ok {
		lookup.SetAttr("disposition", "hit")
		lookup.End()
		return body, http.StatusOK, "hit", nil
	}
	// The store tier: evidence computed before the last restart (or by a
	// previous process on this box) is served without re-executing, and
	// promoted back into the LRU for the next asker.
	if body, ok := s.storeGet(key); ok {
		s.cache.put(key, body)
		lookup.SetAttr("disposition", "store")
		lookup.End()
		return body, http.StatusOK, "store", nil
	}

	call, leader := s.flight.join(key)
	if leader {
		// A leader that finished between the lookup above and this join
		// has cached its body and forgotten its call: take the body as its
		// follower would have, instead of executing the key again.
		if body, ok := s.cache.peek(key); ok {
			s.flight.forget(key)
			call.finish(body, http.StatusOK, nil)
			s.coalesced.Inc()
			lookup.SetAttr("disposition", "coalesced")
			lookup.End()
			return body, http.StatusOK, "coalesced", nil
		}
	}
	disposition = "coalesced"
	var wait *telemetry.Span
	if leader {
		disposition = "miss"
		// Stamp the call with this trace before the job can finish, so
		// followers joining the same flight can link to the executing
		// trace from theirs.
		call.setOwner(sp)
		// The queue-wait span opens before submission and is closed by the
		// job the moment a worker picks it up (or right here on a failed
		// submit) — its extent is exactly the time spent in the admission
		// queue.
		wait = sp.StartChild("queue.wait")
		if err := s.submit(key, req, call, sp, wait); err != nil {
			wait.End()
			// The leader could not start the run; everyone attached to
			// this call (the leader and any follower that joined since)
			// gets the same backpressure answer.
			s.flight.forget(key)
			status := http.StatusServiceUnavailable
			if errors.Is(err, runner.ErrQueueFull) {
				status = http.StatusTooManyRequests
				s.shedded.Inc()
			}
			call.finish(errorBody(err.Error()), status, err)
		}
	} else {
		s.coalesced.Inc()
		wait = sp.StartChild("coalesced.wait")
		if owner := call.ownerRef(); owner != nil {
			// The work happens in the leader's trace; a link from the
			// waiter's span makes the join navigable from either side.
			wait.AddLink(owner.trace, owner.span)
			wait.SetAttr("executing_trace", owner.trace.String())
		}
	}
	lookup.SetAttr("disposition", disposition)
	lookup.End()

	select {
	case <-call.done:
	case <-ctx.Done():
		if !leader {
			wait.End()
		}
		return nil, 0, disposition, ctx.Err()
	}
	if !leader {
		wait.End()
	}
	return call.body, call.status, disposition, nil
}

// storeGet reads one key from the persistent store, degrading a damaged
// record to a miss (the evidence is recomputed and re-appended).
func (s *Server) storeGet(key string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	body, ok, err := s.store.Get(key)
	if err != nil {
		s.log.Warn("store read failed", slog.String("key", key), slog.String("error", err.Error()))
		return nil, false
	}
	return body, ok
}

// submit hands the request to the pool. On success the pool job owns the
// call: it publishes, forgets and finishes (and closes the queue-wait span
// on pickup). On error the caller keeps ownership of both.
func (s *Server) submit(key string, req keyed, call *flightCall, parent, wait *telemetry.Span) error {
	if s.closed.Load() {
		return fmt.Errorf("service: shutting down")
	}
	return s.pool.TrySubmit(s.baseCtx, func(ctx context.Context) {
		wait.End()
		s.execute(ctx, key, req, call, parent)
	}, func(recovered any) {
		// Pool backstop: a panicking run must not strand the waiters.
		s.simErrors.Inc()
		s.flight.forget(key)
		call.finish(errorBody(fmt.Sprint(recovered)), http.StatusInternalServerError, nil)
	})
}

// execute runs one request under the per-request budget and publishes the
// outcome to cache, store and waiters. parent is the submitting request's
// root span; starting a child from a worker goroutine is safe because a
// span's identity fields are immutable after creation.
func (s *Server) execute(ctx context.Context, key string, req keyed, call *flightCall, parent *telemetry.Span) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()

	ex := parent.StartChild("execute")
	start := time.Now()
	encode, err := req.execute(ctx, s, ex)
	s.runNS.ObserveEx(time.Since(start).Nanoseconds(), parent.TraceID().String())
	if err != nil {
		ex.SetAttr("error", err.Error())
	}
	ex.End()
	var body []byte
	if err == nil {
		body, err = encode()
	}
	if err != nil {
		s.flight.forget(key)
		call.finish(errorBody(err.Error()), s.errorStatus(err), err)
		return
	}
	// Order matters: publish to the cache before forgetting the call, so
	// a request arriving in between either joins the call or hits the
	// cache, and one that missed the cache before the put and joins after
	// the forget finds the body when runKeyed looks again — never starts a
	// duplicate execution.
	s.cache.put(key, body)
	if s.store != nil {
		// Persist after the in-memory publish: a store append failure
		// (disk full, permissions) degrades durability, never the answer.
		if err := s.store.Put(key, body); err != nil {
			s.log.Warn("store append failed", slog.String("key", key), slog.String("error", err.Error()))
		}
	}
	s.flight.forget(key)
	call.finish(body, http.StatusOK, nil)
}

// errorStatus maps a failed execution to its HTTP status and counts it:
// an exhausted budget is 504, a cancelled run (shutdown) 503, anything
// else a 500.
func (s *Server) errorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		s.simErrors.Inc()
		return http.StatusInternalServerError
	}
}
