package main

import (
	"sort"

	"adassure/internal/telemetry"
)

// serveLedger attributes traced requests' client-side time to the service
// layers, from the spans the server recorded for each request's trace.
type serveLedger struct {
	traced     int              // requests whose trace was found
	total      int64            // client-side ns of every successful request
	transport  int64            // client time outside the server's root span
	self       int64            // root span time no child span covers
	children   map[string]int64 // child spans' exclusive time, by span name
	lookup     int64            // cache.lookup span time
	queueWaits []float64        // queue.wait span ns, one per executed request
	execute    timer            // execute spans
}

// analyzeSpans builds the ledger of the successful calls. Call it after the
// server has shut down, so every root span has ended.
func analyzeSpans(tr *telemetry.Tracer, calls []call) *serveLedger {
	l := &serveLedger{children: map[string]int64{}}
	for i := range calls {
		c := &calls[i]
		if c.err != nil {
			continue
		}
		client := int64(c.done - c.sent)
		l.total += client
		id, err := telemetry.ParseTraceID(c.traceID)
		if err != nil {
			continue // no trace: the request's time stays unattributed
		}
		exp, ok := tr.Export(id)
		if !ok {
			continue
		}
		var root *telemetry.SpanExport
		for j := range exp.Spans {
			if exp.Spans[j].ParentID == "" {
				root = &exp.Spans[j]
			}
		}
		if root == nil {
			continue
		}
		var kids []telemetry.SpanExport
		for _, sp := range exp.Spans {
			if sp.ParentID == root.SpanID {
				kids = append(kids, sp)
			}
		}
		l.traced++
		l.transport += client - root.DurationNS
		self, own := exclusive(*root, kids)
		l.self += self
		for name, ns := range own {
			l.children[name] += ns
		}
		for _, k := range kids {
			switch k.Name {
			case "cache.lookup":
				l.lookup += k.DurationNS
			case "queue.wait":
				l.queueWaits = append(l.queueWaits, float64(k.DurationNS))
			case "execute":
				l.execute.add(timer{calls: 1, ns: k.DurationNS})
			}
		}
	}
	return l
}

// exclusive splits root's interval among its direct children: at each
// instant the most recently started open child owns the time, and time no
// child covers is the root's self time.
func exclusive(root telemetry.SpanExport, kids []telemetry.SpanExport) (self int64, own map[string]int64) {
	clip := func(t int64) int64 { return min(max(t, root.StartUnixNS), root.EndUnixNS) }
	cuts := []int64{root.StartUnixNS, root.EndUnixNS}
	for _, k := range kids {
		cuts = append(cuts, clip(k.StartUnixNS), clip(k.EndUnixNS))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	own = map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		owner := -1
		for j, k := range kids {
			if k.StartUnixNS <= a && k.EndUnixNS >= b && (owner < 0 || k.StartUnixNS >= kids[owner].StartUnixNS) {
				owner = j
			}
		}
		if owner < 0 {
			self += b - a
		} else {
			own[kids[owner].Name] += b - a
		}
	}
	return self, own
}

// fill writes the service metrics into vals and returns the share of
// client time left unattributed, with the ledger as a table.
func (l *serveLedger) fill(vals map[string]float64) (float64, []string) {
	n := float64(l.traced)
	vals["service.self.ns"] = ratio(float64(l.self), n)
	vals["service.cache_lookup.ns"] = ratio(float64(l.lookup), n)
	vals["service.queue_wait.p50_ns"] = quantile(l.queueWaits, 0.50)
	vals["service.queue_wait.p95_ns"] = quantile(l.queueWaits, 0.95)
	vals["service.execute.ns"] = l.execute.perCall()
	vals["service.transport.ns"] = ratio(float64(l.transport), n)

	names := make([]string, 0, len(l.children))
	for name := range l.children {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := []ledgerRow{{"transport", float64(l.transport)}, {"handler self", float64(l.self)}}
	for _, name := range names {
		rows = append(rows, ledgerRow{name + " (exclusive)", float64(l.children[name])})
	}
	return ledgerTable(rows, float64(l.total), n, "req")
}
