package search

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"adassure/internal/mutate"
	"adassure/internal/sensors"
)

// Oracle answers one black-box probe: does the catalog detect an attack of
// this magnitude? The optimizer treats detection as monotone in magnitude
// — larger attacks are at least as detectable — which holds for every
// DefaultChannels operator.
type Oracle func(mag float64) (detected bool, err error)

// Point is one converged frontier point on a magnitude axis.
type Point struct {
	// Evading is the largest magnitude found that the catalog missed
	// (0 when every probed magnitude was detected: the channel has no
	// evasion region above Min).
	Evading float64 `json:"evading"`
	// Detected is the minimality certificate: the smallest magnitude found
	// that the catalog caught, bracketing Evading from above (0 when even
	// Max evaded — there is no detected neighbor to certify against).
	Detected float64 `json:"detected"`
	// Evals is the number of oracle calls spent.
	Evals int `json:"evals"`
	// Status: "converged" (bracket tightened to within Ratio), "budget"
	// (budget exhausted with a valid but loose bracket), "all-detected"
	// (detection held all the way down to Min) or "all-evading" (even Max
	// evaded).
	Status string `json:"status"`
}

// Descent statuses.
const (
	StatusConverged   = "converged"
	StatusBudget      = "budget"
	StatusAllDetected = "all-detected"
	StatusAllEvading  = "all-evading"
)

// The descent ladder's defaults: halve the magnitude until the catalog
// goes quiet, and call the bracket converged within 15%.
const (
	defaultShrink = 0.5
	defaultRatio  = 1.15
)

// DescendOptions tunes DescendMagnitude. Zero values select the defaults.
type DescendOptions struct {
	// Min and Max bound the magnitude axis (required, 0 < Min <= Max).
	Min, Max float64
	// Shrink is the geometric step of the descent ladder, in (0, 1)
	// (default 0.5: halve the magnitude until the catalog goes quiet).
	Shrink float64
	// Ratio is the convergence target: the bracket is converged once
	// Detected/Evading <= Ratio (default 1.15).
	Ratio float64
	// Budget caps the number of oracle calls (default 32).
	Budget int
}

func (o *DescendOptions) defaults() error {
	if o.Shrink == 0 {
		o.Shrink = defaultShrink
	}
	if o.Ratio == 0 {
		o.Ratio = defaultRatio
	}
	if o.Budget == 0 {
		o.Budget = 32
	}
	switch {
	case !(o.Min > 0) || math.IsInf(o.Min, 0) || !(o.Max >= o.Min) || math.IsInf(o.Max, 0):
		return fmt.Errorf("search: descent needs 0 < Min <= Max, got [%g, %g]", o.Min, o.Max)
	case !(o.Shrink > 0 && o.Shrink < 1):
		return fmt.Errorf("search: shrink must be in (0, 1), got %g", o.Shrink)
	case !(o.Ratio > 1):
		return fmt.Errorf("search: ratio must be > 1, got %g", o.Ratio)
	case o.Budget < 1:
		return fmt.Errorf("search: budget must be >= 1, got %d", o.Budget)
	}
	return nil
}

// DescendMagnitude runs seeded coordinate descent along one magnitude
// axis: a geometric shrink ladder from Max down until the first evading
// magnitude, then geometric bisection of the (evading, detected) bracket
// until the certificate neighbor is within Ratio of the evading point.
// The returned Point always satisfies: Evading was probed and evaded,
// Detected was probed and detected, Detected > Evading when both are set,
// and Evals <= Budget. The procedure is deterministic in its inputs.
func DescendMagnitude(oracle Oracle, opts DescendOptions) (Point, error) {
	if err := opts.defaults(); err != nil {
		return Point{}, err
	}
	evals := 0
	probe := func(m float64) (bool, error) {
		evals++
		return oracle(m)
	}

	// Shrink ladder: walk down from Max until the catalog goes quiet.
	var detected, evading float64
	m := opts.Max
	for {
		if evals >= opts.Budget {
			return Point{Evading: evading, Detected: detected, Evals: evals, Status: StatusBudget}, nil
		}
		det, err := probe(m)
		if err != nil {
			return Point{}, err
		}
		if !det {
			evading = m
			break
		}
		detected = m
		if m <= opts.Min {
			return Point{Detected: detected, Evals: evals, Status: StatusAllDetected}, nil
		}
		if m *= opts.Shrink; m < opts.Min {
			m = opts.Min
		}
	}
	if detected == 0 {
		// Max itself evaded: nothing above to certify minimality against.
		return Point{Evading: evading, Evals: evals, Status: StatusAllEvading}, nil
	}

	// Geometric bisection of the bracket until the certificate is tight.
	for detected/evading > opts.Ratio {
		if evals >= opts.Budget {
			return Point{Evading: evading, Detected: detected, Evals: evals, Status: StatusBudget}, nil
		}
		mid := math.Sqrt(evading * detected)
		if mid <= evading || mid >= detected {
			break // float64 resolution exhausted
		}
		det, err := probe(mid)
		if err != nil {
			return Point{}, err
		}
		if det {
			detected = mid
		} else {
			evading = mid
		}
	}
	return Point{Evading: evading, Detected: detected, Evals: evals, Status: StatusConverged}, nil
}

// Candidate is one cross-entropy sample: a magnitude on a channel, with an
// activation window for windowable (sensor/actuator) channels.
type Candidate struct {
	Channel int // index into the spec list the sampler was built over
	Mag     float64
	Window  *Window
}

// CEMOptions tunes the cross-entropy sampler.
type CEMOptions struct {
	// Specs are the canonical channels sampled over (required).
	Specs []Spec
	// Duration bounds sampled windows, in simulated seconds (required when
	// any spec's channel is windowable).
	Duration float64
	// Budget caps total samples across all generations (default 48): a
	// generation samples cemPopulation candidates (fewer when the budget
	// is smaller), and there are Budget/population generations, at least
	// one.
	Budget int
	// Seed drives the sampler (default 1).
	Seed int64
}

func (o *CEMOptions) defaults() error {
	if len(o.Specs) == 0 {
		return fmt.Errorf("search: cem needs at least one channel")
	}
	if o.Budget == 0 {
		o.Budget = 48
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	for _, s := range o.Specs {
		if windowable(s.Op) && o.Duration <= 0 {
			return fmt.Errorf("search: cem over windowable channel %q needs a positive duration", s.Op)
		}
	}
	return nil
}

// cemDist is the sampling distribution the refit updates: per channel, a
// log-normal over magnitude and (for windowable channels) normals over
// window start and length, plus a categorical weight over channels.
type cemDist struct {
	weight   []float64 // channel selection mass
	muLogM   []float64
	sigLogM  []float64
	muStart  []float64
	sigStart []float64
	muLen    []float64
	sigLen   []float64
}

// CEMSampler searches magnitude × window × channel combinations with the
// cross-entropy method: sample a population from the current distribution,
// score it, refit the distribution on the elite set. All randomness flows
// from the seed and samples are drawn sequentially, so the candidate
// sequence — and everything downstream — is deterministic.
type CEMSampler struct {
	opts CEMOptions
	rng  *rand.Rand
	dist cemDist
}

// cemPopulation is the candidates sampled per generation when the budget
// allows; the refit keeps the best quarter of them (at least 1).
const cemPopulation = 12

// NewCEMSampler builds a sampler over canonical specs.
func NewCEMSampler(opts CEMOptions) (*CEMSampler, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	n := len(opts.Specs)
	d := cemDist{
		weight:   make([]float64, n),
		muLogM:   make([]float64, n),
		sigLogM:  make([]float64, n),
		muStart:  make([]float64, n),
		sigStart: make([]float64, n),
		muLen:    make([]float64, n),
		sigLen:   make([]float64, n),
	}
	for i, s := range opts.Specs {
		d.weight[i] = 1 / float64(n)
		lo, hi := math.Log(s.Min), math.Log(s.Max)
		d.muLogM[i] = (lo + hi) / 2
		d.sigLogM[i] = (hi - lo) / 4
		if d.sigLogM[i] == 0 {
			d.sigLogM[i] = 0.1
		}
		d.muStart[i] = opts.Duration / 4
		d.sigStart[i] = opts.Duration / 4
		d.muLen[i] = opts.Duration / 2
		d.sigLen[i] = opts.Duration / 4
	}
	return &CEMSampler{opts: opts, rng: sensors.Source(opts.Seed, sensors.StreamCEM), dist: d}, nil
}

// population is the candidates one generation samples: cemPopulation, or
// the whole budget when that is smaller.
func (c *CEMSampler) population() int { return min(cemPopulation, c.opts.Budget) }

// Generations returns the number of generations the budget affords, at
// least one.
func (c *CEMSampler) Generations() int { return max(c.opts.Budget/c.population(), 1) }

// Sample draws one generation of candidates.
func (c *CEMSampler) Sample() []Candidate {
	out := make([]Candidate, c.population())
	for i := range out {
		ch := c.pickChannel()
		s := c.opts.Specs[ch]
		mag := clamp(math.Exp(c.dist.muLogM[ch]+c.dist.sigLogM[ch]*c.rng.NormFloat64()), s.Min, s.Max)
		cand := Candidate{Channel: ch, Mag: mag}
		if windowable(s.Op) {
			start := clamp(c.dist.muStart[ch]+c.dist.sigStart[ch]*c.rng.NormFloat64(), 0, c.opts.Duration-0.5)
			length := clamp(c.dist.muLen[ch]+c.dist.sigLen[ch]*c.rng.NormFloat64(), 0.5, c.opts.Duration-start)
			cand.Window = &Window{Start: start, End: start + length}
		}
		out[i] = cand
	}
	return out
}

// Refit updates the distribution from the elite candidates of the last
// generation — the evading candidates with the largest magnitudes (the
// search wants the worst attack the catalog still misses). Scores pair
// with the candidates slice by index; higher is better, and only
// candidates with score > 0 (evading) join the elite set.
func (c *CEMSampler) Refit(cands []Candidate, scores []float64) {
	type scored struct {
		i     int
		score float64
	}
	var elite []scored
	for i, s := range scores {
		if s > 0 {
			elite = append(elite, scored{i, s})
		}
	}
	if len(elite) == 0 {
		return // nothing evaded: keep exploring from the same distribution
	}
	sort.SliceStable(elite, func(a, b int) bool { return elite[a].score > elite[b].score })
	keep := len(cands) / 4
	if keep < 1 {
		keep = 1
	}
	if len(elite) > keep {
		elite = elite[:keep]
	}

	// Per-channel moment refit over the elite members, smoothed 50/50 with
	// the previous distribution so a lucky generation cannot collapse it.
	n := len(c.opts.Specs)
	count := make([]float64, n)
	sumLogM := make([]float64, n)
	sumStart := make([]float64, n)
	sumLen := make([]float64, n)
	for _, e := range elite {
		cand := cands[e.i]
		count[cand.Channel]++
		sumLogM[cand.Channel] += math.Log(cand.Mag)
		if cand.Window != nil {
			sumStart[cand.Channel] += cand.Window.Start
			sumLen[cand.Channel] += cand.Window.End - cand.Window.Start
		}
	}
	const blend = 0.5
	for i := 0; i < n; i++ {
		c.dist.weight[i] = blend*c.dist.weight[i] + (1-blend)*(count[i]/float64(len(elite)))
		if count[i] == 0 {
			continue
		}
		c.dist.muLogM[i] = blend*c.dist.muLogM[i] + (1-blend)*(sumLogM[i]/count[i])
		c.dist.sigLogM[i] *= 0.8 // geometric variance decay toward the elite mode
		if windowable(c.opts.Specs[i].Op) {
			c.dist.muStart[i] = blend*c.dist.muStart[i] + (1-blend)*(sumStart[i]/count[i])
			c.dist.muLen[i] = blend*c.dist.muLen[i] + (1-blend)*(sumLen[i]/count[i])
			c.dist.sigStart[i] *= 0.8
			c.dist.sigLen[i] *= 0.8
		}
	}
}

// pickChannel draws a channel index from the categorical weights.
func (c *CEMSampler) pickChannel() int {
	total := 0.0
	for _, w := range c.dist.weight {
		total += w
	}
	u := c.rng.Float64() * total
	for i, w := range c.dist.weight {
		if u -= w; u < 0 {
			return i
		}
	}
	return len(c.dist.weight) - 1
}

// windowable reports whether the operator's fault hooks can be gated on
// simulated time (sensor/actuator channels only — see ErrWindowUnsupported).
func windowable(op string) bool {
	switch mutate.OpKind(op) {
	case mutate.KindSensor, mutate.KindActuator:
		return true
	}
	return false
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
