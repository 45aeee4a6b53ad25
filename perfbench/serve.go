package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adassure"
	"adassure/internal/service"
	"adassure/internal/store"
	"adassure/internal/telemetry"
)

const (
	// hotKeys is the size of serve-hot's working set, warmed by set-up: two
	// requests per attack class.
	hotKeys = 26
	// hotRate is serve-hot's offered load in requests per second. A request
	// counts toward goodput when it completes within hotLimit of its due
	// time.
	hotRate  = 400.0
	hotLimit = 10 * time.Millisecond
	// coldRate is serve-cold's offered load: about half of what two execute
	// workers sustain on its requests, which simulate coldDuration seconds
	// with any attack active over [coldAttackStart, coldAttackEnd).
	coldRate        = 50.0
	coldLimit       = time.Second
	coldDuration    = 24.0
	coldAttackStart = 12.0
	coldAttackEnd   = 20.0
	// coldWarm requests run during serve-cold's set-up, so its timed window
	// starts with keys in both the LRU and the store.
	coldWarm = 8
	// coldCacheBytes holds about a dozen serve-cold bodies, so recent
	// repeats hit the LRU and long-past ones come back from the store.
	coldCacheBytes = 32 << 10
	// A recent repeat picks one of the last coldRecent fresh keys, an old
	// one a key at least coldOld fresh keys back.
	coldRecent = 6
	coldOld    = 48
	// maxDuration is the server's default duration cap, under which keys
	// are canonicalized.
	maxDuration = 600
	// trialRequests is the size of one open-loop trial: enough requests
	// for ten beyond its p99.
	trialRequests = 1000
	// replayScenarios bounds how many executed serve-cold requests a traced
	// run replays through the timing wrappers.
	replayScenarios = 32
)

// cycledRequest is request k of a cycle through every built-in track,
// controller and attack class. 7, 4 and 13 are coprime, so any 364
// consecutive requests cover every combination once, and a sequence's cost
// hardly depends on its seed.
func cycledRequest(k int) service.Request {
	classes := attackClasses()
	return service.Request{
		Track:      string(sweepTracks[k%len(sweepTracks)]),
		Controller: string(sweepControllers[k%len(sweepControllers)]),
		Attack:     string(classes[k%len(classes)]),
	}
}

// hotRequests draws serve-hot's working set of full-length requests, two
// per attack class with opposite guard settings, and an n-request sequence
// that repeats working-set keys only.
func hotRequests(seed int64, n int) (set, seq []service.Request) {
	rng := rand.New(rand.NewSource(seed))
	set = make([]service.Request, hotKeys)
	for i := range set {
		set[i] = cycledRequest(i)
		set[i].Guarded = i%2 == 1
		set[i].Seed = 1 + rng.Int63n(1_000_000)
	}
	seq = make([]service.Request, n)
	for i := range seq {
		seq[i] = set[rng.Intn(len(set))]
	}
	return set, seq
}

// coldRequests draws serve-cold's sequence: coldWarm set-up requests, then
// n timed ones. About 70% are fresh keys, cycling through every track,
// controller and attack class with a drawn guard setting and seed;
// 15% repeat a recent key, likely still in the LRU, and 15% a long-past
// key, likely evicted to the store.
func coldRequests(seed int64, n int) []service.Request {
	rng := rand.New(rand.NewSource(seed))
	var out, fresh []service.Request
	for i := 0; i < coldWarm+n; i++ {
		u := rng.Float64()
		switch {
		case i >= coldWarm && u < 0.15:
			out = append(out, fresh[len(fresh)-1-rng.Intn(min(coldRecent, len(fresh)))])
		case i >= coldWarm && u < 0.30 && len(fresh) > coldOld:
			out = append(out, fresh[rng.Intn(len(fresh)-coldOld)])
		default:
			r := cycledRequest(len(fresh))
			r.Guarded = rng.Intn(2) == 1
			r.Seed = int64(len(fresh))*1000 + 1 + rng.Int63n(1000) // distinct per fresh key
			r.Duration = coldDuration
			if r.Attack != string(adassure.AttackNone) {
				r.AttackStart, r.AttackEnd = coldAttackStart, coldAttackEnd
			}
			fresh = append(fresh, r)
			out = append(out, r)
		}
	}
	return out
}

// keysOf returns each request's cache key as the server computes it.
func keysOf(reqs []service.Request) ([]string, error) {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		c, err := r.Canonicalize(maxDuration)
		if err != nil {
			return nil, err
		}
		keys[i] = c.Key()
	}
	return keys, nil
}

// serveEnv is one in-process server on a loopback listener, a client with
// at most `workers` connections, and the checks on what the server serves.
type serveEnv struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	tr     *http.Transport
	client *service.Client
	v      *verifier
	dir    string // store directory, removed by close; "" without a store
}

func startEnv(cfg service.Config, dir string) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{srv: service.New(cfg), served: make(chan struct{}), v: newVerifier(), dir: dir}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	e.tr = &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	e.client = &service.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: e.tr}}
	return e, nil
}

// close shuts the listener down and waits for in-flight handlers, drains
// the server (which closes its store) and removes the store directory.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.served
	e.tr.CloseIdleConnections()
	if cerr := e.srv.Close(ctx); err == nil {
		err = cerr
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// verifier checks what a server serves: every 200 body must decode as a
// service.Response for the requested key, and every hit, store or
// coalesced body must equal the miss body of its key byte for byte.
type verifier struct {
	mu      sync.Mutex
	miss    map[string][]byte // first miss body per key
	order   []string          // keys in first-miss order
	pending []servedBody      // non-miss bodies that arrived before their miss
}

type servedBody struct {
	key  string
	body []byte
}

func newVerifier() *verifier { return &verifier{miss: map[string][]byte{}} }

func (v *verifier) observe(key string, resp *service.Response, info *service.CallInfo) error {
	if resp.Schema != service.ResponseSchema || resp.Key != key || resp.Summary.Steps <= 0 {
		return fmt.Errorf("response for key %.12s: schema %q, key %.12s, %d steps", key, resp.Schema, resp.Key, resp.Summary.Steps)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ref, ok := v.miss[key]
	switch {
	case info.Cache == "miss":
		if !ok {
			v.miss[key] = info.Body
			v.order = append(v.order, key)
		}
	case !ok:
		v.pending = append(v.pending, servedBody{key, info.Body})
	case !bytes.Equal(ref, info.Body):
		return fmt.Errorf("%s body for key %.12s differs from its miss body", info.Cache, key)
	}
	return nil
}

// finish checks the bodies that arrived before their key's miss.
func (v *verifier) finish() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, p := range v.pending {
		ref, ok := v.miss[p.key]
		if !ok {
			return fmt.Errorf("key %.12s was served without ever missing", p.key)
		}
		if !bytes.Equal(ref, p.body) {
			return fmt.Errorf("body for key %.12s differs from its miss body", p.key)
		}
	}
	v.pending = nil
	return nil
}

// call is the client-side record of one request.
type call struct {
	req             int           // index into the offered sequence
	due, sent, done time.Duration // offsets from the loop's start
	cache           string        // X-Adassure-Cache disposition
	traceID         string        // the request's own trace, on traced servers
	err             error         // refused, failed, or failed an output check
	badOutput       bool          // err is an output check failure
}

// sleepUntil blocks until due has passed since start. It sleeps in
// nanosleep(2) rather than time.Sleep: an idle Go process wakes its timers
// with millisecond granularity, which would make the generator late by up
// to a millisecond on every serve-hot request.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps the rest
	}
}

// openLoop offers reqs to env at rate requests per second: request i falls
// due i/rate seconds after the start, whatever happened to earlier ones. A
// request that falls due while all `workers` senders are busy goes out
// late, and its latency still counts from its due time. An infinite rate
// sends back to back.
func openLoop(ctx context.Context, env *serveEnv, reqs []service.Request, keys []string, rate float64) []call {
	calls := make([]call, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				c := &calls[i]
				c.req = i
				c.due = time.Duration(float64(i) / rate * float64(time.Second))
				sleepUntil(start, c.due)
				c.sent = time.Since(start)
				resp, info, err := env.client.Run(ctx, reqs[i])
				c.done = time.Since(start)
				env.check(c, keys[i], resp, info, err)
			}
		}()
	}
	wg.Wait()
	return calls
}

// check records one response in c.
func (e *serveEnv) check(c *call, key string, resp *service.Response, info *service.CallInfo, err error) {
	if info != nil {
		c.cache, c.traceID = info.Cache, info.TraceID
	}
	switch {
	case err != nil && info != nil && info.Status == http.StatusOK:
		c.err, c.badOutput = err, true // a 200 body that does not decode
	case err != nil:
		c.err = err
	default:
		if err := e.v.observe(key, resp, info); err != nil {
			c.err, c.badOutput = err, true
		}
	}
}

// tally counts a loop's calls into rep and t. Latency counts from each
// request's due time; a failed request misses every latency limit.
func tally(rep *report, t *trial, calls []call, limit time.Duration) {
	for i := range calls {
		c := &calls[i]
		rep.attempted++
		t.ops++
		switch {
		case c.badOutput:
			rep.checkFailed(c.err)
		case c.err != nil:
			rep.opFailed(c.err)
		default:
			lat := c.done - c.due
			t.latencyMS = append(t.latencyMS, ms(lat))
			if lat <= limit {
				t.good++
			}
		}
	}
}

// dispositions counts the successful calls by cache disposition.
func dispositions(calls []call) (map[string]int, int) {
	d := map[string]int{}
	n := 0
	for _, c := range calls {
		if c.err == nil {
			d[c.cache]++
			n++
		}
	}
	return d, n
}

// lateness is how late each request was sent, in ms.
func lateness(calls []call) []float64 {
	late := make([]float64, len(calls))
	for i, c := range calls {
		late[i] = ms(c.sent - c.due)
	}
	return late
}

// meanClientNS is the mean time the client spent in a successful call.
func meanClientNS(calls []call) float64 {
	var sum, n float64
	for _, c := range calls {
		if c.err == nil {
			sum += float64(c.done - c.sent)
			n++
		}
	}
	return ratio(sum, n)
}

func loopNotes(calls []call, rate float64, limit time.Duration) []string {
	d, n := dispositions(calls)
	late := lateness(calls)
	return []string{
		fmt.Sprintf("open loop: %d requests at %g/s from %d senders, goodput limit %v", len(calls), rate, workers, limit),
		fmt.Sprintf("dispositions: hit %d, store %d, miss %d, coalesced %d of %d served", d["hit"], d["store"], d["miss"], d["coalesced"], n),
		fmt.Sprintf("generator lateness: p50 %.3f ms, p99 %.3f ms", quantile(late, 0.50), quantile(late, 0.99)),
	}
}

// serveSpec is one serving workload: its server and what it is offered.
type serveSpec struct {
	cfg       service.Config // Store and Tracer are set per set-up
	withStore bool
	warm      []service.Request // sent during set-up
	warmKeys  []string
	reqs      []service.Request // the timed sequence
	keys      []string
	rate      float64
	limit     time.Duration
}

func newServeSpec(cfg service.Config, withStore bool, warm, reqs []service.Request, rate float64, limit time.Duration) (*serveSpec, error) {
	warmKeys, err := keysOf(warm)
	if err != nil {
		return nil, err
	}
	keys, err := keysOf(reqs)
	if err != nil {
		return nil, err
	}
	return &serveSpec{cfg: cfg, withStore: withStore, warm: warm, warmKeys: warmKeys,
		reqs: reqs, keys: keys, rate: rate, limit: limit}, nil
}

// setup starts a fresh server, with a fresh store when the workload has
// one, and sends the warm-up requests, which must all succeed.
func (sp *serveSpec) setup(ctx context.Context, work string, tracer *telemetry.Tracer) (*serveEnv, error) {
	cfg := sp.cfg
	cfg.Tracer = tracer
	dir := ""
	if sp.withStore {
		var err error
		if dir, err = os.MkdirTemp(work, "store-"); err != nil {
			return nil, err
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cfg.Store = st
	}
	env, err := startEnv(cfg, dir)
	if err != nil {
		if cfg.Store != nil {
			cfg.Store.Close()
			os.RemoveAll(dir)
		}
		return nil, err
	}
	for _, c := range openLoop(ctx, env, sp.warm, sp.warmKeys, math.Inf(1)) {
		if c.err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up request %d: %w", c.req, c.err)
		}
	}
	return env, nil
}

// pass sets up a server, offers it reqs, shuts it down and returns the
// calls and the verifier holding the miss bodies.
func (sp *serveSpec) pass(ctx context.Context, work string, tracer *telemetry.Tracer, reqs []service.Request, keys []string) ([]call, *verifier, error) {
	env, err := sp.setup(ctx, work, tracer)
	if err != nil {
		return nil, nil, err
	}
	calls := openLoop(ctx, env, reqs, keys, sp.rate)
	if err := env.close(); err != nil {
		return nil, nil, err
	}
	return calls, env.v, nil
}

func runServeHot(ctx context.Context, cfg runConfig) (*report, error) {
	set, seq := hotRequests(cfg.seed, int(hotRate*cfg.measure.Seconds()))
	sp, err := newServeSpec(service.Config{Workers: workers}, false, set, seq, hotRate, hotLimit)
	if err != nil {
		return nil, err
	}
	return runServe(ctx, cfg, sp)
}

func runServeCold(ctx context.Context, cfg runConfig) (*report, error) {
	reqs := coldRequests(cfg.seed, int(coldRate*cfg.measure.Seconds()))
	sp, err := newServeSpec(service.Config{Workers: workers, CacheBytes: coldCacheBytes}, true,
		reqs[:coldWarm], reqs[coldWarm:], coldRate, coldLimit)
	if err != nil {
		return nil, err
	}
	return runServe(ctx, cfg, sp)
}

func runServe(ctx context.Context, cfg runConfig, sp *serveSpec) (*report, error) {
	if cfg.trace {
		return serveTraced(ctx, cfg, sp)
	}
	rep := newReport()
	var setup []float64
	var env *serveEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		e, err := sp.setup(ctx, cfg.work, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		env = e
	}
	// Offer the sequence in consecutive trials of trialRequests, so every
	// trial still has ten requests beyond its p99.
	var trials []trial
	var calls []call
	for lo := 0; lo < len(sp.reqs); {
		hi := lo + trialRequests
		if len(sp.reqs)-hi < trialRequests {
			hi = len(sp.reqs) // the last trial takes the remainder
		}
		var t trial
		begin := readUsage()
		segment := openLoop(ctx, env, sp.reqs[lo:hi], sp.keys[lo:hi], sp.rate)
		t.add(begin, readUsage())
		tally(rep, &t, segment, sp.limit)
		trials = append(trials, t)
		calls = append(calls, segment...)
		lo = hi
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	if err := env.v.finish(); err != nil {
		rep.checkFailed(err)
	}
	reportEndToEnd(rep, setup, trials)
	rep.notes = append(rep.notes, loopNotes(calls, sp.rate, sp.limit)...)
	rep.notes = append(rep.notes, fmt.Sprintf("%d trials of about %d requests", len(trials), len(calls)/len(trials)))
	return rep, nil
}

// serveTraced offers the first half of the sequence to an untraced server
// and then to a traced one, and reports the service ledger from the traced
// server's spans. serve-cold adds the store and simulation replays.
func serveTraced(ctx context.Context, cfg runConfig, sp *serveSpec) (*report, error) {
	rep := newReport()
	half := len(sp.reqs) / 2
	reqs, keys := sp.reqs[:half], sp.keys[:half]
	plain, pv, err := sp.pass(ctx, cfg.work, nil, reqs, keys)
	if err != nil {
		return nil, err
	}
	tracer := telemetry.New(telemetry.Config{MaxTraces: half + len(sp.warm) + 64})
	traced, tv, err := sp.pass(ctx, cfg.work, tracer, reqs, keys)
	if err != nil {
		return nil, err
	}
	var t trial
	for _, v := range []*verifier{pv, tv} {
		if err := v.finish(); err != nil {
			rep.checkFailed(err)
		}
	}
	tally(rep, &t, plain, sp.limit)
	tally(rep, &t, traced, sp.limit)

	led := analyzeSpans(tracer, traced)
	share, table := led.fill(rep.values)
	if math.Abs(share) > ledgerTolerance {
		rep.checkFailed(fmt.Errorf("service ledger does not close: %.1f%% of client time unattributed", 100*share))
	}
	d, n := dispositions(traced)
	for _, k := range []string{"hit", "store", "miss", "coalesced"} {
		rep.values["service."+k+"_ratio"] = ratio(d[k], n)
	}
	rep.values["loadgen.lateness_p99_ms"] = quantile(lateness(traced), 0.99)
	rep.values["trace.overhead"] = ratio(meanClientNS(traced), meanClientNS(plain))
	rep.notes = append(rep.notes, loopNotes(traced, sp.rate, sp.limit)...)
	rep.notes = append(rep.notes, fmt.Sprintf("service ledger over %d traced requests:", led.traced))
	rep.notes = append(rep.notes, table...)
	if sp.withStore {
		simShare, err := replayCold(ctx, cfg.work, rep, sp, traced, tv)
		if err != nil {
			return nil, err
		}
		if math.Abs(simShare) > math.Abs(share) {
			share = simShare
		}
	}
	rep.values["ledger.unattributed_share"] = share
	return rep, nil
}

// replayCold replays a traced serve-cold pass: its store traffic into a
// fresh store, and a sample of the scenarios it executed through the
// timing wrappers. It returns the simulation ledger's unattributed share.
func replayCold(ctx context.Context, work string, rep *report, sp *serveSpec, calls []call, v *verifier) (float64, error) {
	var reads []string
	var executed []adassure.Scenario
	for _, c := range calls {
		if c.err != nil {
			continue
		}
		switch c.cache {
		case "store":
			reads = append(reads, sp.keys[c.req])
		case "miss":
			canon, err := sp.reqs[c.req].Canonicalize(maxDuration)
			if err != nil {
				return 0, err
			}
			executed = append(executed, canon.Scenario())
		}
	}
	dir, err := os.MkdirTemp(work, "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	put, get, err := replayStore(dir, v, reads)
	if err != nil {
		return 0, err
	}
	rep.values["store.put.ns"] = put.perCall()
	rep.values["store.get.ns"] = get.perCall()
	rep.notes = append(rep.notes, fmt.Sprintf("store replay: %d puts, %d gets", put.calls, get.calls))

	if n := len(executed); n > replayScenarios {
		sample := make([]adassure.Scenario, replayScenarios)
		for i := range sample {
			sample[i] = executed[i*n/replayScenarios]
		}
		executed = sample
	}
	led := &simLedger{}
	_, _, errs := runGrid(ctx, executed, led.run)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("replayed scenario %d: %w", i, err)
		}
	}
	if err := led.replayAll(ctx, executed); err != nil {
		rep.checkFailed(err)
	}
	share, table, err := led.fill(rep.values)
	if err != nil {
		rep.checkFailed(err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("simulation ledger over %d replayed misses:", led.scenarios))
	rep.notes = append(rep.notes, table...)
	return share, nil
}

// replayStore times a pass's store traffic on a fresh store in dir: one
// append per miss body, in miss order, then one read per request the
// server answered from its store tier. Every read must return the bytes
// written.
func replayStore(dir string, v *verifier, reads []string) (put, get timer, err error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return put, get, err
	}
	defer st.Close() // error paths only; the success path checks Close
	for _, k := range v.order {
		start := time.Now()
		if err := st.Put(k, v.miss[k]); err != nil {
			return put, get, err
		}
		put.since(start)
	}
	for _, k := range reads {
		start := time.Now()
		body, ok, err := st.Get(k)
		get.since(start)
		if err != nil {
			return put, get, err
		}
		if !ok || !bytes.Equal(body, v.miss[k]) {
			return put, get, fmt.Errorf("store replay: key %.12s read back wrong", k)
		}
	}
	return put, get, st.Close()
}
