package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"adassure/internal/obs"
	"adassure/internal/telemetry"
)

// resultCache is the deterministic-result cache: a content-addressed
// (canonical request hash → marshalled response body) LRU bounded by
// total byte size rather than entry count, since a bundle-carrying
// response can be three orders of magnitude larger than a clean-run
// summary. Stored values are immutable byte slices; a hit serves exactly
// the bytes a fresh run would have produced.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bytesGau  *obs.Gauge
	countGau  *obs.Gauge
}

// entryOverhead approximates the per-entry bookkeeping cost (key string,
// list element, map slot) charged against the byte cap alongside the
// body, so a cap of N bytes bounds real memory near N even under many
// tiny entries.
const entryOverhead = 256

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache builds a cache bounded to maxBytes (<= 0 disables
// caching entirely: get always misses, put is a no-op).
func newResultCache(maxBytes int64, reg *obs.Registry) *resultCache {
	return &resultCache{
		maxBytes:  maxBytes,
		ll:        list.New(),
		entries:   map[string]*list.Element{},
		hits:      reg.Counter("service.cache.hits"),
		misses:    reg.Counter("service.cache.misses"),
		evictions: reg.Counter("service.cache.evictions"),
		bytesGau:  reg.Gauge("service.cache.bytes"),
		countGau:  reg.Gauge("service.cache.entries"),
	}
}

func (c *resultCache) cost(e *cacheEntry) int64 {
	return int64(len(e.body)) + int64(len(e.key)) + entryOverhead
}

// get returns the cached body for key, promoting the entry to
// most-recently-used. The returned slice must not be mutated.
func (c *resultCache) get(key string) ([]byte, bool) {
	body, ok := c.peek(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return body, ok
}

// peek is get without counting a hit or a miss.
func (c *resultCache) peek(key string) ([]byte, bool) {
	if c.maxBytes <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting least-recently-used entries until
// the byte cap holds. Bodies that alone exceed the cap are not cached.
// Re-putting an existing key refreshes its body and recency.
func (c *resultCache) put(key string, body []byte) {
	if c.maxBytes <= 0 {
		return
	}
	e := &cacheEntry{key: key, body: body}
	if c.cost(e) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += c.cost(e) - c.cost(old)
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(e)
		c.bytes += c.cost(e)
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= c.cost(victim)
		c.evictions.Inc()
	}
	c.bytesGau.Set(float64(c.bytes))
	c.countGau.Set(float64(c.ll.Len()))
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// sizeBytes reports the current charged byte total.
func (c *resultCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// flightGroup coalesces concurrent identical requests: the first caller
// for a key becomes the leader and runs the simulation; followers block
// on the shared call and receive the same bytes. This is the standard
// singleflight pattern, inlined because the repo takes no external
// dependencies.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight execution shared by all coalesced waiters.
type flightCall struct {
	done   chan struct{}
	body   []byte
	status int
	err    error
	// owner identifies the leader's trace and root span, published before
	// submission so followers can link their coalesced-wait spans to the
	// trace doing the work. Nil when the leader's request is untraced.
	owner atomic.Pointer[flightOwner]
}

// flightOwner names the executing request's trace for follower links.
type flightOwner struct {
	trace telemetry.TraceID
	span  telemetry.SpanID
}

// setOwner stamps the call with the leader's span identity (no-op for a
// nil/untraced span).
func (c *flightCall) setOwner(sp *telemetry.Span) {
	if sp.Enabled() {
		c.owner.Store(&flightOwner{trace: sp.TraceID(), span: sp.SpanID()})
	}
}

// ownerRef returns the leader's identity, or nil when untraced (or read
// before the leader stamped it).
func (c *flightCall) ownerRef() *flightOwner { return c.owner.Load() }

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// join returns the call for key, creating it (leader=true) when absent.
func (g *flightGroup) join(key string) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// forget removes key so later requests start a fresh call (or hit the
// cache). Must be called before finish to keep the window where a new
// request neither joins nor hits the cache closed — the leader caches the
// body first, then forgets, then finishes.
func (g *flightGroup) forget(key string) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
}

// finish publishes the outcome and releases every waiter. It must be
// called exactly once per call.
func (c *flightCall) finish(body []byte, status int, err error) {
	c.body = body
	c.status = status
	c.err = err
	close(c.done)
}
