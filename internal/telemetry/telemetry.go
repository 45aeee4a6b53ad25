// Package telemetry is the distributed-tracing layer of the repo: a
// dependency-free implementation of W3C Trace Context (traceparent)
// propagation plus an in-process span store, built so one request can be
// followed through the whole serving tier — HTTP handler → cache lookup →
// single-flight coalescing → pool queue wait → job execution →
// sim/monitor/diagnosis phases — and then retrieved as a self-contained
// JSON trace (GET /debug/traces/<id>) or opened in Perfetto.
//
// Design constraints, mirroring internal/obs and internal/events:
//
//  1. A nil tracer costs nothing. Every method on a nil *Tracer or nil
//     *Span is a single-branch no-op that never reads the clock and never
//     allocates (pinned by TestNilTracerZeroAlloc), so instrumented layers
//     need no "is tracing on?" flag of their own.
//  2. Bounded memory. The tracer retains the newest MaxTraces traces with
//     at most maxSpansPerTrace spans each; older traces are evicted FIFO
//     and late spans of evicted traces are counted, not stored.
//  3. One timeline model downstream. The store keeps spans in their W3C
//     shape, which is the /debug/traces wire format; TraceExport.Events
//     converts a trace into internal/events' Begin/End records, so request
//     spans render and export to Perfetto through the same writers as
//     scenario events.
//  4. No dependencies beyond the standard library.
//
// Typical serving-tier wiring:
//
//	tr := telemetry.New(telemetry.Config{})
//	sp := tr.StartSpan("http /v1/run", r.Header.Get("traceparent"))
//	child := sp.StartChild("cache.lookup")
//	...
//	child.End()
//	sp.End()
//	exp, _ := tr.Export(sp.TraceID()) // JSON-serialisable trace
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer. The zero value applies the defaults.
type Config struct {
	// MaxTraces bounds the number of retained traces (default 256). The
	// oldest trace is evicted when a new root span would exceed it.
	MaxTraces int
}

func (c *Config) defaults() {
	if c.MaxTraces <= 0 {
		c.MaxTraces = 256
	}
}

// maxSpansPerTrace bounds the spans stored per trace; spans beyond it are
// counted as dropped, not stored.
const maxSpansPerTrace = 512

// Link points from a span to a related span in another trace — the
// coalesced-request pattern: a waiter that attached to an in-flight
// execution links to the executing trace instead of duplicating its spans.
type Link struct {
	TraceID TraceID
	SpanID  SpanID
}

// SpanData is the immutable record of one finished span.
type SpanData struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for root spans
	Name    string
	// Start and End are wall-clock Unix nanoseconds.
	Start int64
	End   int64
	// Attrs carries string evidence (route, status, cache disposition).
	Attrs map[string]string
	Links []Link
}

// traceRec is the per-trace span store.
type traceRec struct {
	spans   []SpanData
	dropped int
}

// Tracer assigns IDs, stores finished spans per trace and evicts oldest
// traces beyond the configured bound. All methods are nil-safe; a nil
// *Tracer produces nil *Spans whose methods are free no-ops.
type Tracer struct {
	cfg Config

	// idState seeds span/trace ID generation: a lock-free splitmix64
	// stream seeded from crypto/rand at construction, so IDs are unique
	// within and across processes without a syscall per span.
	idState atomic.Uint64

	mu      sync.Mutex
	traces  map[TraceID]*traceRec
	order   []TraceID // FIFO eviction queue, oldest first
	head    int       // index of the oldest live entry in order
	late    uint64    // spans dropped because their trace was evicted
	started uint64    // root spans started (traces created)
}

// New builds a tracer. A nil tracer (var t *Tracer) is also valid and
// disables tracing at zero cost.
func New(cfg Config) *Tracer {
	cfg.defaults()
	t := &Tracer{cfg: cfg, traces: make(map[TraceID]*traceRec)}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		t.idState.Store(uint64(time.Now().UnixNano()))
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// next returns the next 64-bit pseudo-random value (splitmix64). The
// atomic add gives every caller a distinct stream position; the mix makes
// consecutive outputs uncorrelated.
func (t *Tracer) next() uint64 {
	z := t.idState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], t.next())
	}
	return id
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], t.next())
		binary.BigEndian.PutUint64(id[8:], t.next())
	}
	return id
}

// Span is one in-flight operation. A span is not safe for concurrent
// mutation: set attributes from the goroutine that owns it, then End
// exactly once (later Ends are ignored). The nil *Span is a valid no-op.
type Span struct {
	tracer *Tracer
	data   SpanData
	ended  bool
}

// StartSpan opens a root span. traceparent, when non-empty and valid W3C
// Trace Context, pins the trace ID and remote parent; otherwise a fresh
// trace ID is generated. The span's trace becomes retrievable via Export
// until evicted.
func (t *Tracer) StartSpan(name, traceparent string) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tracer: t}
	sp.data.Name = name
	sp.data.SpanID = t.newSpanID()
	if tid, psid, _, err := ParseTraceParent(traceparent); err == nil {
		sp.data.TraceID = tid
		sp.data.Parent = psid
	} else {
		sp.data.TraceID = t.newTraceID()
	}
	sp.data.Start = time.Now().UnixNano()

	t.mu.Lock()
	t.started++
	if _, ok := t.traces[sp.data.TraceID]; !ok {
		for len(t.traces) >= t.cfg.MaxTraces && t.head < len(t.order) {
			delete(t.traces, t.order[t.head])
			t.order[t.head] = TraceID{}
			t.head++
		}
		// Compact the FIFO queue once the dead prefix dominates, so a
		// long-running server's eviction queue stays O(MaxTraces).
		if t.head > 64 && t.head*2 >= len(t.order) {
			n := copy(t.order, t.order[t.head:])
			t.order = t.order[:n]
			t.head = 0
		}
		t.traces[sp.data.TraceID] = &traceRec{}
		t.order = append(t.order, sp.data.TraceID)
	}
	t.mu.Unlock()

	return sp
}

// StartChild opens a child span in the receiver's trace. On a nil span it
// returns nil, so instrumentation chains stay free when tracing is off.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	child := &Span{tracer: s.tracer}
	child.data.Name = name
	child.data.TraceID = s.data.TraceID
	child.data.Parent = s.data.SpanID
	child.data.SpanID = s.tracer.newSpanID()
	child.data.Start = time.Now().UnixNano()
	return child
}

// SetAttr attaches one string attribute (route, disposition, error).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
}

// SetFloat attaches one numeric attribute, formatted minimally.
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(value, 'g', -1, 64))
}

// SetInt attaches one integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// AddLink points this span at a span in another trace (the coalesced
// waiter → executing run pattern).
func (s *Span) AddLink(trace TraceID, span SpanID) {
	if s == nil || trace.IsZero() {
		return
	}
	s.data.Links = append(s.data.Links, Link{TraceID: trace, SpanID: span})
}

// End finishes the span: it is stamped and stored in its trace. End is
// idempotent; only the first call records.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.data.End = time.Now().UnixNano()
	t := s.tracer

	t.mu.Lock()
	if rec, ok := t.traces[s.data.TraceID]; ok {
		if len(rec.spans) < maxSpansPerTrace {
			rec.spans = append(rec.spans, s.data)
		} else {
			rec.dropped++
		}
	} else {
		t.late++
	}
	t.mu.Unlock()
}

// Enabled reports whether the span records anything — the idiom for
// guarding attribute construction at instrumented call sites.
func (s *Span) Enabled() bool { return s != nil }

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.data.TraceID
}

// SpanID returns the span's ID (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.data.SpanID
}

// TraceParent renders the span's W3C traceparent header value ("" for a
// nil span), for propagation to downstream processes and response headers.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.data.TraceID, s.data.SpanID, FlagSampled)
}

// Len reports the number of retained traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Started reports how many root spans (traces) were started.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// TraceIDs returns the retained trace IDs, oldest first.
func (t *Tracer) TraceIDs() []TraceID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceID, 0, len(t.traces))
	for i := t.head; i < len(t.order); i++ {
		if _, ok := t.traces[t.order[i]]; ok {
			out = append(out, t.order[i])
		}
	}
	return out
}
