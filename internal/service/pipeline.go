package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
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
// and every kind can be submitted asynchronously, with its content key as
// the handle to poll (handleKeyed, handleResult).
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

// handleKeyed is the endpoint of one keyed kind: decode, start the keyed
// pipeline, and answer with the body and its cache disposition once it is
// available. A client that sends Prefer: respond-async (RFC 7240) gets 202
// with the content key as soon as the work is started instead, and polls
// GET /v1/results/{key}; a server that keeps no results (cache disabled,
// no store) ignores the preference and answers synchronously.
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
		key := canon.Key()
		body, status, disposition, call := startKeyed(s, sp, canon, key)
		if (call != nil || status == http.StatusOK) && s.keepsResults() && prefersAsync(r.Header) {
			w.Header().Set("Location", resultsPath+key)
			w.Header().Set("Preference-Applied", "respond-async")
			w.Header().Set(CacheHeader, disposition)
			writeJSON(w, http.StatusAccepted, keyBody(key))
			return
		}
		if call != nil {
			var err error
			if body, status, err = waitKeyed(r.Context(), sp, call, disposition); err != nil {
				// The client went away; the run continues and will fill
				// the cache for the next asker.
				return
			}
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

// startKeyed is the first half of the keyed pipeline: serve from the
// in-memory cache, fall through to the persistent store, else join the
// single-flight group and, as its leader, submit the execution to the
// pool. It never waits for an execution. It returns either a body with
// its status (a hit, a store read, or the backpressure answer of a failed
// submission) or the in-flight call to wait on, with the disposition
// either way: "miss" for the leader, "coalesced" for a follower.
//
// It is generic over the concrete request type so a cache hit never boxes
// the request; the conversion to keyed happens only on submission.
func startKeyed[R keyed](s *Server, sp *telemetry.Span, req R, key string) (body []byte, status int, disposition string, call *flightCall) {
	lookup := sp.StartChild("cache.lookup")
	if body, disposition, ok := s.lookup(key); ok {
		lookup.SetAttr("disposition", disposition)
		lookup.End()
		return body, http.StatusOK, disposition, nil
	}

	call, leader := s.flight.join(key)
	if !leader {
		s.coalesced.Inc()
		lookup.SetAttr("disposition", "coalesced")
		lookup.End()
		return nil, 0, "coalesced", call
	}
	// A leader that finished between the lookup above and this join has
	// cached its body and forgotten its call: take the body as its
	// follower would have, instead of executing the key again.
	if body, ok := s.cache.peek(key); ok {
		s.flight.forget(key)
		call.finish(body, http.StatusOK, nil)
		s.coalesced.Inc()
		lookup.SetAttr("disposition", "coalesced")
		lookup.End()
		return body, http.StatusOK, "coalesced", nil
	}
	lookup.SetAttr("disposition", "miss")
	defer lookup.End()
	// Stamp the call with this trace before the job can finish, so
	// followers joining the same flight can link to the executing trace
	// from theirs.
	call.setOwner(sp)
	// The queue-wait span opens before submission and is closed by the job
	// the moment a worker picks it up (or right here on a failed submit) —
	// its extent is exactly the time spent in the admission queue.
	wait := sp.StartChild("queue.wait")
	if err := s.submit(key, req, call, sp, wait); err != nil {
		wait.End()
		// The leader could not start the run; everyone attached to this
		// call (the leader and any follower that joined since) gets the
		// same backpressure answer.
		s.flight.forget(key)
		status := http.StatusServiceUnavailable
		if errors.Is(err, runner.ErrQueueFull) {
			status = http.StatusTooManyRequests
			s.shedded.Inc()
		}
		body := errorBody(err.Error())
		call.finish(body, status, err)
		return body, status, "miss", nil
	}
	return nil, 0, "miss", call
}

// waitKeyed is the second half of the keyed pipeline: block until the call
// startKeyed returned finishes, or ctx is done (the only case that returns
// a non-nil error — the run continues and fills the cache for the next
// asker). A follower's wait is covered by a coalesced.wait span linked to
// the leader's trace; the leader's queue wait is closed by its pool job.
func waitKeyed(ctx context.Context, sp *telemetry.Span, call *flightCall, disposition string) ([]byte, int, error) {
	if disposition == "coalesced" {
		wait := sp.StartChild("coalesced.wait")
		if owner := call.ownerRef(); owner != nil {
			// The work happens in the leader's trace; a link from the
			// waiter's span makes the join navigable from either side.
			wait.AddLink(owner.trace, owner.span)
			wait.SetAttr("executing_trace", owner.trace.String())
		}
		defer wait.End()
	}
	select {
	case <-call.done:
		return call.body, call.status, nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// resultsPath is the route prefix under which an async submission's
// result is polled by its content key.
const resultsPath = "/v1/results/"

// handleResult is the poll side of an async submission, GET
// /v1/results/{key}: 200 with the body (and its "hit" or "store"
// disposition) once the cache or the store holds the key, 202 while an
// execution of it is in flight, 404 otherwise — never submitted, evicted
// from both tiers, or failed (failures are not kept; resubmit to see the
// error). The key comes from outside, so a malformed one is refused
// before it can touch either tier or their counters.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	key := r.PathValue("key")
	if !isKey(key) {
		s.badReqs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody("invalid key "+strconv.Quote(key)+": want 64 lowercase hex digits"))
		return
	}
	// The flight group is asked first: an execution publishes to the
	// cache and the store before it leaves the group, so a key that is no
	// longer pending is either readable below or not kept at all.
	if s.flight.pending(key) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeJSON(w, http.StatusAccepted, keyBody(key))
		return
	}
	if body, disposition, ok := s.lookup(key); ok {
		w.Header().Set(CacheHeader, disposition)
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody("no result for key "+key))
}

// isKey reports whether s has the form of a content key: a SHA-256 in 64
// lowercase hex digits.
func isKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// keyBody is the body of a 202: the content key to poll. Keys are hex, so
// they need no JSON escaping.
func keyBody(key string) []byte { return []byte(`{"key":"` + key + `"}`) }

// prefersAsync reports whether the request carries the RFC 7240
// respond-async preference, in any of its Prefer headers or list entries
// and with any parameters.
func prefersAsync(h http.Header) bool {
	for _, v := range h.Values("Prefer") {
		for v != "" {
			var pref string
			pref, v, _ = strings.Cut(v, ",")
			pref, _, _ = strings.Cut(pref, ";")
			pref, _, _ = strings.Cut(pref, "=")
			if strings.EqualFold(strings.TrimSpace(pref), "respond-async") {
				return true
			}
		}
	}
	return false
}

// keepsResults reports whether a finished execution stays readable: an
// async answer is only useful when the result can be polled afterwards.
func (s *Server) keepsResults() bool { return s.cfg.CacheBytes > 0 || s.store != nil }

// lookup serves key from the in-memory cache, else from the persistent
// store: evidence computed before the last restart (or by a previous
// process on this box) is served without re-executing, and promoted back
// into the LRU for the next asker.
func (s *Server) lookup(key string) (body []byte, disposition string, ok bool) {
	if body, ok := s.cache.get(key); ok {
		return body, "hit", true
	}
	if body, ok := s.storeGet(key); ok {
		s.cache.put(key, body)
		return body, "store", true
	}
	return nil, "", false
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
	// the forget finds the body when startKeyed looks again — never starts
	// a duplicate execution. A poll of the key that no longer finds the
	// call finds the body in the cache or the store.
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
