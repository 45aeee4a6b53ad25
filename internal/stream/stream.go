// Package stream turns the batch assertion pipeline into an online
// monitoring session: frames arrive one at a time from an unbounded
// stream, each is pushed through the same core.Monitor the batch path
// uses, and diagnosis is maintained incrementally (diagnosis.
// RunningSignature) instead of being recomputed from the record — so the
// per-frame cost is bounded no matter how long the session runs.
//
// The defining contract, enforced by the differential suite in this
// package: a Session fed the same frames as a batch run produces exactly
// the same violation record and exactly the same ranked hypotheses —
// streaming is a delivery mechanism, never a different answer. The
// carve-out making that possible: the monitor's violation record is the
// analysis product and is retained in full (it grows with violations, not
// with frames); everything per-frame — the debounce windows, the
// incremental signature, the flight-recorder ring of recent raw frames —
// is fixed-size.
//
// A session is single-writer: Ingest/IngestLine/Consume/Close must be
// called from one goroutine. Stats is safe to call concurrently with
// ingestion (atomics only), which is what lets a server report on live
// sessions.
package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"adassure/internal/core"
	"adassure/internal/diagnosis"
	"adassure/internal/events"
	"adassure/internal/obs"
)

// Defaults.
const (
	DefaultRingSize    = 256
	DefaultErrorBudget = 10
)

// Config parameterises a streaming session.
type Config struct {
	// Catalog configures the assertion catalog (zero value = defaults).
	Catalog core.CatalogConfig
	// Assertions restricts the catalog to a subset of IDs; empty loads
	// the full catalog.
	Assertions []string
	// RingSize is the flight-recorder capacity in frames (the most recent
	// raw frames kept for forensic inspection). 0 means DefaultRingSize.
	RingSize int
	// Heartbeat emits a heartbeat event every N ingested frames; 0
	// disables heartbeats.
	Heartbeat int
	// ErrorBudget is how many malformed input lines the session tolerates
	// before closing with a BudgetError. 0 means DefaultErrorBudget; a
	// negative value tolerates none.
	ErrorBudget int
	// Sink receives every emitted event, synchronously from the ingest
	// goroutine. Nil drops events (the session still monitors and
	// diagnoses; Violations/Diagnose stay available).
	Sink func(Event)
	// Obs wires the session and its monitor to a metrics registry (nil =
	// uninstrumented). The monitor's frame and eval counters are exact
	// once the session is closed.
	Obs *obs.Registry
	// Events wires violation episodes to a timeline recorder under the
	// given scope prefix (nil = no recording).
	Events     *events.Recorder
	EventScope string
}

// Stats is a point-in-time summary of a session. Safe to read while
// another goroutine ingests.
type Stats struct {
	// Frames counts accepted frames; Rejected counts frames refused by
	// the NDJSON contract or time-ordering check.
	Frames   int64 `json:"frames"`
	Rejected int64 `json:"rejected,omitempty"`
	// Violations counts raised episodes; OpenEpisodes those still open.
	Violations   int64 `json:"violations"`
	OpenEpisodes int64 `json:"open_episodes"`
	// LastT is the timestamp of the last accepted frame.
	LastT float64 `json:"last_t"`
}

// Session is one incremental monitoring session over a frame stream.
type Session struct {
	cfg Config
	mon *core.Monitor
	sig *diagnosis.RunningSignature

	ring   []core.Frame
	budget int
	seq    int64
	lastT  float64
	haveT  bool
	closed bool

	// Concurrent-read stats (Stats() may race with ingestion).
	frames    atomic.Int64
	rejected  atomic.Int64
	violCount atomic.Int64
	openCount atomic.Int64
	lastTBits atomic.Uint64

	framesCtr, rejectedCtr, violCtr *obs.Counter
}

// New builds a session. The returned session has ingested nothing; feed
// it with Ingest (typed frames), IngestLine (one NDJSON line) or Consume
// (a whole NDJSON reader), then Close it.
func New(cfg Config) (*Session, error) {
	mon, err := core.NewCatalogMonitorWith(cfg.Catalog, cfg.Assertions)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	budget := cfg.ErrorBudget
	switch {
	case budget == 0:
		budget = DefaultErrorBudget
	case budget < 0:
		budget = 0
	}
	s := &Session{
		cfg:    cfg,
		mon:    mon,
		sig:    diagnosis.NewRunningSignature(),
		ring:   make([]core.Frame, cfg.RingSize),
		budget: budget,
	}
	mon.Attach(cfg.Obs)
	if cfg.Events != nil {
		mon.AttachEvents(cfg.Events, cfg.EventScope)
	}
	mon.SetEpisodeHooks(s.onOpen, s.onClose)
	s.framesCtr = cfg.Obs.Counter("stream.frames")
	s.rejectedCtr = cfg.Obs.Counter("stream.frames_rejected")
	s.violCtr = cfg.Obs.Counter("stream.violations")
	return s, nil
}

// onOpen runs synchronously inside Monitor.Step when an episode is
// raised: fold it into the running signature and publish it.
func (s *Session) onOpen(v core.Violation) {
	s.sig.Observe(v)
	s.violCount.Add(1)
	s.openCount.Add(1)
	s.violCtr.Inc()
	wv := WireViolationOf(v)
	s.emit(Event{Kind: EventViolationOpened, T: v.T, Violation: &wv})
}

// onClose runs when an episode's window clears: retire it in the
// signature, publish the completed violation, then publish the rolling
// diagnosis — the "hypothesis ranked" moment of the stream.
func (s *Session) onClose(v core.Violation) {
	s.sig.CloseEpisode(v.AssertionID, v.Duration)
	s.openCount.Add(-1)
	wv := WireViolationOf(v)
	closeT := v.T + v.Duration
	s.emit(Event{Kind: EventViolationClosed, T: closeT, Violation: &wv})
	s.emit(Event{Kind: EventDiagnosis, T: closeT, Hypotheses: WireHypothesesOf(s.sig.Diagnose())})
}

// emit numbers and delivers one event.
func (s *Session) emit(e Event) {
	if s.cfg.Sink == nil {
		return
	}
	s.seq++
	e.Seq = s.seq
	s.cfg.Sink(e)
}

// Ingest feeds one typed frame. The clean-frame path performs no heap
// allocation (pinned by TestSessionIngestAllocs); only episode
// transitions and heartbeats allocate, to build their events. A frame
// whose time regresses below the previous frame's is rejected with a
// *FrameError (equal times are allowed, matching offline.Recording
// validation); on a closed session Ingest returns ErrClosed.
func (s *Session) Ingest(f core.Frame) error {
	if s.closed {
		return ErrClosed
	}
	if s.haveT && f.T < s.lastT {
		return s.reject(&FrameError{
			Reason: RejectOutOfOrder,
			Detail: fmt.Sprintf("frame time %g regressed below %g", f.T, s.lastT),
		})
	}
	s.lastT, s.haveT = f.T, true
	s.lastTBits.Store(math.Float64bits(f.T))
	n := s.frames.Add(1)
	s.framesCtr.Inc()
	s.ring[int((n-1)%int64(len(s.ring)))] = f
	s.mon.Step(f) // episode hooks fire in here
	if hb := s.cfg.Heartbeat; hb > 0 && n%int64(hb) == 0 {
		s.emit(Event{
			Kind:         EventHeartbeat,
			T:            f.T,
			Frames:       n,
			Violations:   s.violCount.Load(),
			OpenEpisodes: s.openCount.Load(),
		})
	}
	return nil
}

// reject charges one bad frame against the error budget. While budget
// remains the rejection is absorbed: a frame-rejected event is emitted
// and the returned *FrameError is informational. Once the budget is gone
// the reject is terminal — a *BudgetError is returned (and no event
// emitted for it: the caller owns the terminal close, so a stream that
// dies on its very first line can still fail with a clean HTTP status
// before any event bytes are written).
func (s *Session) reject(fe *FrameError) error {
	rejected := s.rejected.Add(1)
	s.rejectedCtr.Inc()
	if s.budget <= 0 {
		return &BudgetError{Rejected: rejected, Last: fe}
	}
	s.budget--
	s.emit(Event{
		Kind: EventFrameRejected,
		T:    s.lastT,
		Reject: &WireReject{
			Reason:     fe.Reason,
			Detail:     fe.Detail,
			BudgetLeft: s.budget,
		},
	})
	return fe
}

// IngestLine feeds one NDJSON line. Blank lines are skipped (keep-alive
// newlines are legal NDJSON); anything else either parses to a frame and
// goes through Ingest, or is charged against the error budget.
func (s *Session) IngestLine(line []byte) error {
	if s.closed {
		return ErrClosed
	}
	if isBlank(line) {
		return nil
	}
	f, err := ParseFrame(line)
	if err != nil {
		var fe *FrameError
		if !errors.As(err, &fe) {
			fe = &FrameError{Reason: RejectSyntax, Detail: err.Error()}
		}
		return s.reject(fe)
	}
	return s.Ingest(f)
}

// Consume reads an entire NDJSON stream, ingesting line by line until
// EOF or a terminal error. Non-terminal rejects are absorbed (budget
// permitting) and reading continues. The returned error is nil on EOF,
// otherwise the terminal error annotated with the 1-based line number.
func (s *Session) Consume(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		if err := s.IngestLine(sc.Bytes()); err != nil && Terminal(err) {
			return fmt.Errorf("stream: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: line %d: %w", line+1, err)
	}
	return nil
}

// Close ends the session normally (reason "eof").
func (s *Session) Close() Stats { return s.CloseWith(ReasonEOF, 0) }

// CloseWith ends the session with an explicit reason and optional
// HTTP-style status code, emitting the final session-closed event with
// the session stats and the final hypothesis ranking. Closing an
// already-closed session is a no-op returning the final stats. Episodes
// still open stay open — their recorded Duration is zero, exactly as in
// a batch record that ends mid-episode.
func (s *Session) CloseWith(reason string, code int) Stats {
	st := s.Stats()
	if s.closed {
		return st
	}
	s.closed = true
	s.mon.Flush()
	if s.cfg.Events != nil {
		s.mon.FinishEvents(s.lastT)
	}
	stCopy := st
	s.emit(Event{
		Kind:       EventSessionClosed,
		T:          s.lastT,
		Frames:     st.Frames,
		Reason:     reason,
		Code:       code,
		Hypotheses: WireHypothesesOf(s.sig.Diagnose()),
		Stats:      &stCopy,
	})
	return st
}

// Closed reports whether the session has been closed.
func (s *Session) Closed() bool { return s.closed }

// Stats returns a point-in-time summary. Safe to call from any
// goroutine while ingestion is running.
func (s *Session) Stats() Stats {
	return Stats{
		Frames:       s.frames.Load(),
		Rejected:     s.rejected.Load(),
		Violations:   s.violCount.Load(),
		OpenEpisodes: s.openCount.Load(),
		LastT:        math.Float64frombits(s.lastTBits.Load()),
	}
}

// Violations returns the full violation record so far, in raise order —
// identical to what a batch Monitor over the same frames records. Ingest
// goroutine only.
func (s *Session) Violations() []core.Violation { return s.mon.Violations() }

// Diagnose returns the rolling root-cause ranking — identical to batch
// diagnosis over the current violation record. Ingest goroutine only.
func (s *Session) Diagnose() []diagnosis.Hypothesis { return s.sig.Diagnose() }

// RecentFrames copies the flight recorder: the last min(ingested,
// RingSize) accepted frames in arrival order. Ingest goroutine only.
func (s *Session) RecentFrames() []core.Frame {
	n := s.frames.Load()
	size := int64(len(s.ring))
	if n < size {
		out := make([]core.Frame, n)
		copy(out, s.ring[:n])
		return out
	}
	out := make([]core.Frame, size)
	start := int(n % size)
	copy(out, s.ring[start:])
	copy(out[int(size)-start:], s.ring[:start])
	return out
}

// isBlank reports whether the line is empty or all ASCII whitespace.
func isBlank(line []byte) bool {
	for _, b := range line {
		switch b {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}
