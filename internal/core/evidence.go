package core

import "math"

// evidenceCap is the most named values one assertion outcome carries. The
// largest built-in evidence sets (A6, A14, Consistency) hold four; the cap
// is a compile-time property of the catalog, not a tunable.
const evidenceCap = 4

// evidenceKV is one named value inside an Evidence set.
type evidenceKV struct {
	Key string
	Val float64
}

// Evidence is a fixed-capacity set of named values attached to an assertion
// outcome. It is a plain value: building one performs no heap allocation,
// which keeps the per-frame assertion-eval path allocation-free (the
// previous map[string]float64 representation cost one map per evaluation,
// the single largest allocator in the monitor hot loop). An assertion
// builds it in place in the Outcome the monitor hands it (see Outcome.Set),
// so it is not copied either. The map form is materialised only when a
// violation is actually raised — see Evidence.Map and Monitor.apply.
type Evidence struct {
	n  int
	kv [evidenceCap]evidenceKV
}

// And adds one named value to the set in place and returns the set, so
// values chain:
//
//	o.Set(ok, margin).And("value", v).And("lo", lo).And("hi", hi)
//
// It panics past the capacity: evidence shapes are static per assertion, so
// an overflow is a programming error that any test run surfaces
// immediately.
func (e *Evidence) And(key string, v float64) *Evidence {
	if e.n >= evidenceCap {
		panic("core: evidence overflow — raise evidenceCap")
	}
	e.kv[e.n] = evidenceKV{Key: key, Val: v}
	e.n++
	return e
}

// Len returns the number of named values in the set.
func (e *Evidence) Len() int { return e.n }

// Get returns the named value, if present.
func (e *Evidence) Get(key string) (float64, bool) {
	for i := 0; i < e.n; i++ {
		if e.kv[i].Key == key {
			return e.kv[i].Val, true
		}
	}
	return 0, false
}

// Map materialises the set as a map for violation records and JSON export.
// An empty set yields nil, matching the legacy "no evidence" encoding.
func (e *Evidence) Map() map[string]float64 {
	if e.n == 0 {
		return nil
	}
	m := make(map[string]float64, e.n)
	for i := 0; i < e.n; i++ {
		m[e.kv[i].Key] = e.kv[i].Val
	}
	return m
}

// SanitizeEvidence makes a violation's evidence map JSON-representable:
// one-sided assertion bounds snapshot ±Inf thresholds (e.g. "any value
// below hi"), which encoding/json rejects, so infinities are clamped to
// ±MaxFloat64 and NaN entries dropped. A map with only finite values is
// returned as is (nil stays nil, empty stays empty); otherwise the result
// is a fresh map and ev is never mutated.
func SanitizeEvidence(ev map[string]float64) map[string]float64 {
	clean := true
	for _, val := range ev {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			clean = false
			break
		}
	}
	if clean {
		return ev
	}
	cp := make(map[string]float64, len(ev))
	for k, val := range ev {
		switch {
		case math.IsNaN(val):
		case math.IsInf(val, 1):
			cp[k] = math.MaxFloat64
		case math.IsInf(val, -1):
			cp[k] = -math.MaxFloat64
		default:
			cp[k] = val
		}
	}
	return cp
}
