// Package diagnosis is the second half of the ADAssure methodology: it maps
// the violation record produced by the core monitor to a ranked list of
// root-cause hypotheses (attack classes and controller weaknesses), each
// with a human-readable rationale. The mapping encodes the catalog's
// designed detection semantics — which assertions fire first, which co-fire
// and which stay silent for each cause — as a weighted rule table.
package diagnosis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"adassure/internal/core"
	"adassure/internal/events"
)

// Cause identifies a diagnosed root cause. The attack causes match the
// attack-injection classes so experiments can score diagnosis accuracy
// against ground truth.
type Cause string

// Diagnosable causes.
const (
	CauseNone           Cause = "none"
	CauseStepSpoof      Cause = "gnss-step-spoof"
	CauseDriftSpoof     Cause = "gnss-drift-spoof"
	CauseReplay         Cause = "gnss-replay"
	CauseFreeze         Cause = "gnss-freeze"
	CauseDelay          Cause = "gnss-delay"
	CauseDropout        Cause = "gnss-dropout"
	CauseNoiseInflation Cause = "gnss-noise-inflation"
	CauseMeander        Cause = "gnss-meander"
	CauseIMUHeadingBias Cause = "imu-heading-bias"
	CauseOdomScale      Cause = "odom-scale"
	// A quantized/truncated position feed (sub-noise or coarse grid).
	CauseQuantizedFeed Cause = "gnss-quantized-feed"
	// Actuation-path faults.
	CauseStuckSteer  Cause = "actuator-stuck-steer"
	CauseSteerOffset Cause = "actuator-steer-offset"
	// Controller weaknesses (no attack present).
	CauseCtrlOscillation Cause = "controller-oscillation"
	CauseCtrlTracking    Cause = "controller-tracking"
)

// Signature is the feature vector extracted from a violation record.
type Signature struct {
	// Episodes counts violation episodes per assertion ID.
	Episodes map[string]int
	// FirstID is the assertion that raised the earliest violation.
	FirstID string
	// FirstT is the time of the earliest violation.
	FirstT float64
	// Order lists assertion IDs by time of their first violation.
	Order []string
	// Total is the total episode count.
	Total int
	// MaxDuration is the longest episode duration per assertion ID.
	// Episodes still open at end of run count as +Inf.
	MaxDuration map[string]float64
}

// Extract builds a Signature from a violation record.
func Extract(vs []core.Violation) Signature {
	sig := Signature{Episodes: map[string]int{}, MaxDuration: map[string]float64{}, FirstT: math.Inf(1)}
	first := map[string]float64{}
	for _, v := range vs {
		sig.Episodes[v.AssertionID]++
		sig.Total++
		d := v.Duration
		if d == 0 {
			d = math.Inf(1) // episode still open at end of run
		}
		if d > sig.MaxDuration[v.AssertionID] {
			sig.MaxDuration[v.AssertionID] = d
		}
		if t, ok := first[v.AssertionID]; !ok || v.T < t {
			first[v.AssertionID] = v.T
		}
		if v.T < sig.FirstT {
			sig.FirstT = v.T
			sig.FirstID = v.AssertionID
		}
	}
	for id := range first {
		sig.Order = append(sig.Order, id)
	}
	sort.Slice(sig.Order, func(i, j int) bool { return first[sig.Order[i]] < first[sig.Order[j]] })
	if sig.Total == 0 {
		sig.FirstT = 0
	}
	return sig
}

// Hypothesis is one ranked root-cause candidate.
type Hypothesis struct {
	Cause      Cause
	Confidence float64 // normalised to [0, 1] across the returned list
	Rationale  string
}

// rule describes the expected violation signature of one cause. Each
// clause holds its terms in catalog order (see terms), so a rule sums its
// evidence in one fixed order.
type rule struct {
	cause Cause
	// firstAnyOf: the earliest violation should come from one of these
	// (strong evidence, weighted heavily).
	firstAnyOf []string
	// present assertions add their weight when fired.
	present []term
	// absent assertions subtract their weight when fired.
	absent []term
	// minEpisodes adds evidence when an assertion's episode count reaches
	// the threshold (captures "repeated episodes" signatures).
	minEpisodes []term
	// maxEpisodes subtracts evidence when exceeded.
	maxEpisodes []term
	// minDuration adds evidence when the assertion's longest episode
	// reaches the threshold (and subtracts it when the assertion fired but
	// only briefly); maxDuration is the converse.
	minDuration []term
	maxDuration []term
	rationale   string
}

// term is one clause entry: an assertion ID and its weight or threshold.
type term struct {
	id string
	v  float64
}

// terms lists a clause's entries in catalog order (A1, A2, …, A15). A
// floating-point sum depends on the order of its terms, and Go randomises
// map order, so a rule summed straight off its maps could score one
// signature differently from one call to the next.
func terms[V int | float64](m map[string]V) []term {
	out := make([]term, 0, len(m))
	for id, v := range m {
		out = append(out, term{id: id, v: float64(v)})
	}
	// IDs are "A" and a number, so the shorter ID is the smaller number.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].id, out[j].id
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// ruleTable encodes the catalog's designed detection semantics. The
// comments state the physical reasoning; the weights express how
// distinctive each piece of evidence is.
var ruleTable = []rule{
	{
		cause:      CauseStepSpoof,
		firstAnyOf: []string{"A1"},
		present:    terms(map[string]float64{"A1": 2, "A10": 1.5, "A2": 1, "A13": 0.5, "A4": 0.5}),
		absent:     terms(map[string]float64{"A5": 2, "A9": 1.5}),
		maxEpisodes: terms(map[string]int{
			"A1": 4, // a step is one or two discrete jumps, not a stream
		}),
		rationale: "instant kinematically-impossible jump (A1) with innovation spike (A10) and believed lane departure (A2), without staleness or progress regression",
	},
	{
		cause:      CauseDriftSpoof,
		firstAnyOf: []string{"A13", "A12", "A2"},
		present:    terms(map[string]float64{"A13": 2.5, "A2": 1, "A12": 1}),
		absent:     terms(map[string]float64{"A5": 2, "A9": 1.5, "A1": 0.5}),
		rationale:  "fused heading diverges slowly from the inertial reference (A13) long before any jump detector reacts — the gradual-drift signature",
	},
	{
		cause:      CauseReplay,
		firstAnyOf: []string{"A1", "A9"},
		present:    terms(map[string]float64{"A9": 2.5, "A1": 1.5, "A10": 1, "A4": 0.5}),
		absent:     terms(map[string]float64{"A5": 2}),
		rationale:  "route progress regresses (A9): the position stream revisits already-driven ground, with a jump at splice points (A1)",
	},
	{
		cause:      CauseFreeze,
		firstAnyOf: []string{"A10", "A4"},
		present:    terms(map[string]float64{"A4": 2, "A10": 2, "A12": 0.5}),
		absent:     terms(map[string]float64{"A1": 1.5, "A5": 2, "A9": 1, "A11": 0.5}),
		maxEpisodes: terms(map[string]int{
			"A10": 4, // one sustained inconsistency, not repeated tugging
		}),
		rationale: "fixes keep arriving but stop moving: GNSS-derived speed collapses against odometry (A4) while the filter's innovation grows in one sustained episode (A10), with no jump and no staleness",
	},
	{
		cause:       CauseDelay,
		firstAnyOf:  []string{"A5"},
		present:     terms(map[string]float64{"A5": 2, "A9": 1.5, "A10": 1, "A13": 0.5}),
		absent:      terms(map[string]float64{}),
		maxDuration: terms(map[string]float64{"A5": 5}),
		minEpisodes: terms(map[string]int{"A10": 4}),
		rationale:   "brief delivery gap at onset (A5) followed by stale-content artifacts — lagged positions keep arriving and keep disagreeing with the filter (many A10) and regress progress (A9)",
	},
	{
		cause:       CauseDropout,
		firstAnyOf:  []string{"A5"},
		present:     terms(map[string]float64{"A5": 3}),
		absent:      terms(map[string]float64{"A9": 1.5, "A10": 1, "A1": 0.5, "A2": 1}),
		minDuration: terms(map[string]float64{"A5": 5}),
		rationale:   "the channel goes silent and stays silent (one long A5 episode) while almost nothing else fires until delivery resumes",
	},
	{
		cause:      CauseNoiseInflation,
		firstAnyOf: []string{"A1", "A10"},
		present:    terms(map[string]float64{"A1": 1.5, "A10": 1.5, "A4": 1}),
		absent:     terms(map[string]float64{"A5": 2, "A9": 1}),
		minEpisodes: terms(map[string]int{
			"A1": 4, // scattered large errors trip the jump detector repeatedly
		}),
		rationale: "repeated, uncorrelated jump and innovation episodes (many A1/A10) — scatter, not a coherent trajectory manipulation",
	},
	{
		cause:      CauseMeander,
		firstAnyOf: []string{"A10", "A1", "A2"},
		present:    terms(map[string]float64{"A10": 1.5, "A2": 1.5, "A7": 1, "A13": 1, "A1": 0.5}),
		absent:     terms(map[string]float64{"A5": 2, "A9": 1}),
		minEpisodes: terms(map[string]int{
			"A10": 5, // each oscillation period re-trips the innovation gate
			"A13": 3, // and re-drags the fused heading
		}),
		maxEpisodes: terms(map[string]int{
			"A1": 6,
		}),
		rationale: "periodic lane-bound and innovation episodes with lateral-acceleration spikes — an oscillating position offset steering the controller",
	},
	{
		cause:      CauseIMUHeadingBias,
		firstAnyOf: []string{"A13", "A3"},
		present:    terms(map[string]float64{"A13": 2, "A3": 2}),
		absent:     terms(map[string]float64{"A1": 1.5, "A10": 1.5, "A5": 2, "A4": 1, "A2": 0.5}),
		rationale:  "heading references disagree (A13/A3) while every position-channel check stays quiet — the fault is in the heading channel itself",
	},
	{
		cause:      CauseOdomScale,
		firstAnyOf: []string{"A4"},
		present:    terms(map[string]float64{"A4": 2.5, "A10": 1}),
		absent:     terms(map[string]float64{"A1": 1.5, "A5": 2, "A13": 1, "A3": 1, "A2": 0.5, "A12": 1}),
		minEpisodes: terms(map[string]int{
			"A10": 5, // the biased speed channel keeps tugging the filter
		}),
		rationale: "speed references disagree (A4) and the biased channel repeatedly tugs the filter (many A10) while position, heading and lane checks stay quiet — a wheel-speed scaling fault",
	},
	{
		cause:      CauseQuantizedFeed,
		firstAnyOf: []string{"A15"},
		present:    terms(map[string]float64{"A15": 3.5}),
		absent:     terms(map[string]float64{"A5": 2, "A9": 1, "A13": 1}),
		rationale:  "GNSS position deltas land on an exact spatial lattice (A15) — a quantized or truncated fixed-point position feed upstream of fusion",
	},
	{
		cause:      CauseStuckSteer,
		firstAnyOf: []string{"A14"},
		present:    terms(map[string]float64{"A14": 2.5, "A2": 1.5, "A12": 1, "A6": 0.5}),
		absent:     terms(map[string]float64{"A1": 1.5, "A10": 1.5, "A5": 2, "A4": 1, "A13": 1, "A3": 1}),
		minEpisodes: terms(map[string]int{
			"A14": 1, // the actuation-response residual is mandatory
			"A2":  1, // and the un-steered vehicle actually departs the lane
		}),
		rationale: "the vehicle's yaw response stops following the steering command (A14) and it physically departs the lane (A2) while every sensor cross-check agrees — the actuation path is latched",
	},
	{
		cause:      CauseSteerOffset,
		firstAnyOf: []string{"A14"},
		present:    terms(map[string]float64{"A14": 3.5}),
		absent:     terms(map[string]float64{"A1": 1.5, "A10": 1.5, "A5": 2, "A4": 1, "A13": 1, "A3": 1, "A2": 1.5, "A12": 1.5}),
		rationale:  "a persistent bias between commanded and measured yaw (A14) that the controller silently compensates — tracking stays fine, so the fault is a constant actuation offset",
	},
	{
		cause:      CauseCtrlOscillation,
		firstAnyOf: []string{"A11", "A7"},
		present:    terms(map[string]float64{"A11": 2.5, "A8": 0.5, "A7": 1}),
		absent:     terms(map[string]float64{"A1": 2, "A5": 2, "A10": 1.5, "A13": 1.5, "A4": 1, "A14": 1}),
		rationale:  "steering oscillation or excess lateral acceleration (A11/A7) with clean sensor-consistency checks — a controller tuning weakness, not an attack",
	},
	{
		cause:      CauseCtrlTracking,
		firstAnyOf: []string{"A2", "A6", "A12"},
		present:    terms(map[string]float64{"A2": 2, "A6": 1, "A12": 1}),
		absent:     terms(map[string]float64{"A1": 2, "A5": 2, "A10": 1.5, "A13": 1.5, "A4": 1, "A3": 1, "A14": 1.5}),
		rationale:  "lane-keeping bound exceeded (A2) while all sensor cross-checks agree — the controller itself cannot hold the path",
	},
}

// Diagnose ranks root-cause hypotheses for a violation record. An empty
// record yields a single high-confidence CauseNone.
func Diagnose(vs []core.Violation) []Hypothesis {
	return DiagnoseSignature(Extract(vs))
}

// DiagnoseSignature ranks root-cause hypotheses for an already-extracted
// signature. Diagnose is Extract + DiagnoseSignature; the streaming
// monitor calls this directly with an incrementally-maintained signature
// (see RunningSignature) so rolling diagnosis over an unbounded stream
// needs no replay of the violation record.
func DiagnoseSignature(sig Signature) []Hypothesis {
	if sig.Total == 0 {
		return []Hypothesis{{Cause: CauseNone, Confidence: 1, Rationale: "no assertion violations recorded"}}
	}
	type scored struct {
		h Hypothesis
		s float64
	}
	var out []scored
	for _, r := range ruleTable {
		s := r.score(sig)
		out = append(out, scored{h: Hypothesis{Cause: r.cause, Rationale: r.rationale}, s: s})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].s > out[j].s })
	// Softmax-style normalisation over positive part for readable
	// confidences.
	var sum float64
	for _, c := range out {
		if c.s > 0 {
			sum += c.s
		}
	}
	hyps := make([]Hypothesis, 0, len(out))
	for _, c := range out {
		conf := 0.0
		if sum > 0 && c.s > 0 {
			conf = c.s / sum
		}
		h := c.h
		h.Confidence = conf
		hyps = append(hyps, h)
	}
	return hyps
}

func (r rule) score(sig Signature) float64 {
	var s float64
	for _, id := range r.firstAnyOf {
		if sig.FirstID == id {
			s += 3
			break
		}
	}
	for _, t := range r.present {
		if sig.Episodes[t.id] > 0 {
			s += t.v
		}
	}
	for _, t := range r.absent {
		if sig.Episodes[t.id] > 0 {
			s -= t.v
		}
	}
	for _, t := range r.minEpisodes {
		if float64(sig.Episodes[t.id]) >= t.v {
			s += 1
		} else {
			s -= 1
		}
	}
	for _, t := range r.maxEpisodes {
		if float64(sig.Episodes[t.id]) > t.v {
			s -= 1.5
		}
	}
	for _, t := range r.minDuration {
		if sig.Episodes[t.id] == 0 {
			continue
		}
		if sig.MaxDuration[t.id] >= t.v {
			s += 1.5
		} else {
			s -= 1.5
		}
	}
	for _, t := range r.maxDuration {
		if sig.Episodes[t.id] == 0 {
			continue
		}
		if sig.MaxDuration[t.id] <= t.v {
			s += 1.5
		} else {
			s -= 1.5
		}
	}
	return s
}

// RecordHypotheses emits the top-ranked hypotheses onto an event
// timeline as instants at time t on track "<scope>diagnosis" — one per
// hypothesis, carrying its rank and confidence — so the diagnosis sits on
// the same timeline as the violations it explains. A nil recorder is a
// no-op.
func RecordHypotheses(rec *events.Recorder, scope string, t float64, hyps []Hypothesis, topN int) {
	if rec == nil || len(hyps) == 0 {
		return
	}
	if topN <= 0 || topN > len(hyps) {
		topN = len(hyps)
	}
	for i, h := range hyps[:topN] {
		rec.Instant(events.CatDiagnosis, scope+"diagnosis", string(h.Cause), t,
			map[string]float64{"rank": float64(i + 1), "confidence": h.Confidence})
	}
}

// Report renders a human-readable debugging report for a violation record:
// the violation timeline, the extracted signature and the ranked causes.
func Report(vs []core.Violation, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADAssure debugging report\n=========================\n")
	if len(vs) == 0 {
		b.WriteString("No violations recorded: nominal run.\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\nViolation timeline (%d episodes):\n", len(vs))
	shown := vs
	const maxShown = 20
	if len(shown) > maxShown {
		shown = shown[:maxShown]
	}
	for _, v := range shown {
		fmt.Fprintf(&b, "  t=%7.2fs  %-4s %-24s [%s] %s\n", v.T, v.AssertionID, v.Name, v.Severity, v.Message)
	}
	if len(vs) > maxShown {
		fmt.Fprintf(&b, "  … %d more\n", len(vs)-maxShown)
	}
	sig := Extract(vs)
	fmt.Fprintf(&b, "\nSignature: first=%s at t=%.2fs, order=%s\n", sig.FirstID, sig.FirstT, strings.Join(sig.Order, "→"))

	hyps := Diagnose(vs)
	if topN <= 0 || topN > len(hyps) {
		topN = len(hyps)
	}
	fmt.Fprintf(&b, "\nRanked root-cause hypotheses:\n")
	for i, h := range hyps[:topN] {
		fmt.Fprintf(&b, "  %d. %-24s %5.1f%%  %s\n", i+1, h.Cause, h.Confidence*100, h.Rationale)
	}
	return b.String()
}
