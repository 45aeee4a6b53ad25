// Package attacks implements the sensor-manipulation framework used to
// probe control-algorithm weaknesses: parameterised transforms on the
// GNSS/IMU/odometry channels with schedulable activation windows. Each
// attack carries a Class label that serves as diagnosis ground truth in the
// experiments. The package substitutes for the hardware spoofing rig of
// the original study; the attack taxonomy (step spoof, gradual drift,
// replay, freeze, delay, dropout, noise inflation, meander) is the standard
// AV-security set.
package attacks

import (
	"fmt"
	"math"
	"math/rand/v2"

	"adassure/internal/geom"
	"adassure/internal/sensors"
)

// Class identifies the attack family; it is the ground-truth label the
// diagnosis engine is scored against.
type Class string

// Attack classes.
const (
	ClassNone           Class = "none"
	ClassStepSpoof      Class = "gnss-step-spoof"
	ClassDriftSpoof     Class = "gnss-drift-spoof"
	ClassReplay         Class = "gnss-replay"
	ClassFreeze         Class = "gnss-freeze"
	ClassDelay          Class = "gnss-delay"
	ClassDropout        Class = "gnss-dropout"
	ClassNoiseInflation Class = "gnss-noise-inflation"
	ClassMeander        Class = "gnss-meander"
	ClassIMUHeadingBias Class = "imu-heading-bias"
	ClassOdomScale      Class = "odom-scale"
)

// Window is a half-open activation interval [Start, End). A zero End means
// "until the end of the run".
type Window struct {
	Start, End float64
}

// The default attack window [DefaultOnset, DefaultEnd) in seconds: the one
// a scenario that names none gets, and the one every experiment grid runs.
const DefaultOnset, DefaultEnd = 20.0, 50.0

// ScenarioDuration is the run length (s) of a scenario that names none and
// of every experiment grid outside quick mode: the default window and
// 20 s of recovery after it.
const ScenarioDuration = 70.0

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool {
	if t < w.Start {
		return false
	}
	return w.End == 0 || t < w.End
}

// Validate checks the window is well-formed.
func (w Window) Validate() error {
	if w.Start < 0 {
		return fmt.Errorf("attacks: window start %g is negative", w.Start)
	}
	if w.End != 0 && w.End <= w.Start {
		return fmt.Errorf("attacks: window end %g not after start %g", w.End, w.Start)
	}
	return nil
}

// GNSSAttack transforms the GNSS fix stream. Apply is called once per fix
// in delivery order; deliver=false drops the fix entirely.
type GNSSAttack interface {
	// Name identifies the attack instance in reports.
	Name() string
	// Class returns the attack family for diagnosis ground truth.
	Class() Class
	// Window returns the activation window.
	Window() Window
	// Apply transforms a fix observed at time t.
	Apply(fix sensors.GNSSFix, t float64) (out sensors.GNSSFix, deliver bool)
}

// base carries the fields shared by all attacks.
type base struct {
	name  string
	class Class
	win   Window
}

func (b base) Name() string   { return b.name }
func (b base) Class() Class   { return b.class }
func (b base) Window() Window { return b.win }

// StepSpoof instantly offsets the reported GNSS position by a fixed vector
// for the duration of the window — the classic position-jump spoof.
type StepSpoof struct {
	base
	Offset geom.Vec2
}

// NewStepSpoof constructs a step spoofing attack.
func NewStepSpoof(win Window, offset geom.Vec2) (*StepSpoof, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if !offset.IsFinite() || offset.Norm() == 0 {
		return nil, fmt.Errorf("attacks: step spoof needs a finite non-zero offset, got %v", offset)
	}
	return &StepSpoof{base: base{name: fmt.Sprintf("step-spoof(%.1fm)", offset.Norm()), class: ClassStepSpoof, win: win}, Offset: offset}, nil
}

// Apply implements GNSSAttack.
func (a *StepSpoof) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if a.win.Contains(t) {
		fix.Pos = fix.Pos.Add(a.Offset)
	}
	return fix, true
}

// DriftSpoof offsets the reported position by a vector growing linearly in
// time from attack onset — the slow "pull-off-the-road" spoof that evades
// naive jump detectors.
type DriftSpoof struct {
	base
	Direction geom.Vec2 // unit direction of the drift
	Rate      float64   // m/s of accumulated offset
	MaxOffset float64   // saturation, 0 = unbounded
}

// NewDriftSpoof constructs a gradual drift attack.
func NewDriftSpoof(win Window, direction geom.Vec2, rate, maxOffset float64) (*DriftSpoof, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if !direction.IsFinite() || direction.Norm() == 0 {
		return nil, fmt.Errorf("attacks: drift spoof needs a non-zero direction")
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("attacks: drift rate must be a positive finite number, got %g", rate)
	}
	if maxOffset < 0 {
		return nil, fmt.Errorf("attacks: max offset must be non-negative, got %g", maxOffset)
	}
	return &DriftSpoof{
		base:      base{name: fmt.Sprintf("drift-spoof(%.2fm/s)", rate), class: ClassDriftSpoof, win: win},
		Direction: direction.Unit(), Rate: rate, MaxOffset: maxOffset,
	}, nil
}

// Apply implements GNSSAttack.
func (a *DriftSpoof) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if a.win.Contains(t) {
		mag := a.Rate * (t - a.win.Start)
		if a.MaxOffset > 0 && mag > a.MaxOffset {
			mag = a.MaxOffset
		}
		fix.Pos = fix.Pos.Add(a.Direction.Scale(mag))
	}
	return fix, true
}

// Replay records fixes during a capture period before the window and then
// re-delivers them (time-shifted) during the window, hiding the vehicle's
// real motion behind stale positions.
type Replay struct {
	base
	CaptureLead float64 // seconds of history to replay from
	buf         []sensors.GNSSFix
	idx         int
}

// NewReplay constructs a replay attack. captureLead is how far back the
// replayed segment starts (e.g. 10 → during the window the victim sees the
// fixes from 10 s ago).
func NewReplay(win Window, captureLead float64) (*Replay, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if captureLead <= 0 {
		return nil, fmt.Errorf("attacks: replay capture lead must be positive, got %g", captureLead)
	}
	if win.Start < captureLead {
		return nil, fmt.Errorf("attacks: replay window start %g must be >= capture lead %g", win.Start, captureLead)
	}
	return &Replay{base: base{name: fmt.Sprintf("replay(-%.0fs)", captureLead), class: ClassReplay, win: win}, CaptureLead: captureLead}, nil
}

// Apply implements GNSSAttack.
func (a *Replay) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if !a.win.Contains(t) {
		if t < a.win.Start {
			a.buf = append(a.buf, fix) // record pre-attack traffic
		}
		return fix, true
	}
	// Find the recorded fix from captureLead seconds ago.
	target := t - a.CaptureLead
	for a.idx < len(a.buf)-1 && a.buf[a.idx+1].T <= target {
		a.idx++
	}
	if len(a.buf) == 0 {
		return fix, true // nothing captured; degrade to pass-through
	}
	replayed := a.buf[a.idx]
	replayed.T = fix.T // re-stamp so the receiver sees a fresh fix
	return replayed, true
}

// Freeze holds the last pre-attack fix for the whole window (a jamming-
// induced receiver latch-up, or a spoofer pinning the position).
type Freeze struct {
	base
	last  sensors.GNSSFix
	valid bool
}

// NewFreeze constructs a freeze attack.
func NewFreeze(win Window) (*Freeze, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	return &Freeze{base: base{name: "freeze", class: ClassFreeze, win: win}}, nil
}

// Apply implements GNSSAttack.
func (a *Freeze) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if !a.win.Contains(t) {
		a.last = fix
		a.valid = true
		return fix, true
	}
	if !a.valid {
		return fix, true
	}
	frozen := a.last
	frozen.T = fix.T // receiver timestamps keep advancing; content is stale
	return frozen, true
}

// Delay adds extra delivery latency to every fix in the window, modelling a
// man-in-the-middle buffering the channel.
type Delay struct {
	base
	Extra float64
	queue []sensors.GNSSFix
}

// NewDelay constructs a delay attack adding extra seconds of latency.
func NewDelay(win Window, extra float64) (*Delay, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if extra <= 0 {
		return nil, fmt.Errorf("attacks: delay must be positive, got %g", extra)
	}
	return &Delay{base: base{name: fmt.Sprintf("delay(+%.2fs)", extra), class: ClassDelay, win: win}, Extra: extra}, nil
}

// Apply implements GNSSAttack. Fixes arriving during the window are held in
// a FIFO until their extra latency has elapsed; release is quantised to the
// arrival of subsequent fixes, adding at most one GNSS period — negligible
// against the attack's own delay. The head of the queue is released when
// due, so ordering is preserved and the content delivered late is stale by
// the configured amount, which is the essence of the attack.
func (a *Delay) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if a.win.Contains(t) {
		fix.T += a.Extra
	}
	a.queue = append(a.queue, fix)
	if a.queue[0].T <= t+1e-9 {
		head := a.queue[0]
		a.queue = a.queue[1:]
		return head, true
	}
	return sensors.GNSSFix{}, false
}

// Dropout drops fixes entirely during the window (jamming / DoS). Ratio 1
// drops everything; ratio in (0,1) drops that fraction, deterministically
// seeded.
type Dropout struct {
	base
	Ratio float64
	rng   *rand.Rand
}

// NewDropout constructs a dropout/DoS attack.
func NewDropout(win Window, ratio float64, seed int64) (*Dropout, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("attacks: dropout ratio must be in (0,1], got %g", ratio)
	}
	return &Dropout{
		base:  base{name: fmt.Sprintf("dropout(%.0f%%)", ratio*100), class: ClassDropout, win: win},
		Ratio: ratio,
		rng:   sensors.Source(seed, sensors.StreamAttack),
	}, nil
}

// Apply implements GNSSAttack.
func (a *Dropout) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if a.win.Contains(t) && (a.Ratio >= 1 || a.rng.Float64() < a.Ratio) {
		return sensors.GNSSFix{}, false
	}
	return fix, true
}

// NoiseInflation adds extra zero-mean position noise during the window,
// modelling meaconing or degraded constellation geometry.
type NoiseInflation struct {
	base
	StdDev float64
	rng    *rand.Rand
}

// NewNoiseInflation constructs a noise-inflation attack.
func NewNoiseInflation(win Window, stddev float64, seed int64) (*NoiseInflation, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if stddev <= 0 {
		return nil, fmt.Errorf("attacks: noise stddev must be positive, got %g", stddev)
	}
	return &NoiseInflation{
		base:   base{name: fmt.Sprintf("noise(%.1fm)", stddev), class: ClassNoiseInflation, win: win},
		StdDev: stddev,
		rng:    sensors.Source(seed, sensors.StreamAttack),
	}, nil
}

// Apply implements GNSSAttack.
func (a *NoiseInflation) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if a.win.Contains(t) {
		fix.Pos = fix.Pos.Add(geom.V(a.rng.NormFloat64()*a.StdDev, a.rng.NormFloat64()*a.StdDev))
	}
	return fix, true
}

// Meander superimposes a slow sinusoidal lateral offset on the position —
// an adaptive spoof designed to oscillate the victim's controller.
type Meander struct {
	base
	Amplitude float64
	Period    float64
	Direction geom.Vec2
}

// NewMeander constructs a meander attack.
func NewMeander(win Window, amplitude, period float64, direction geom.Vec2) (*Meander, error) {
	if err := win.Validate(); err != nil {
		return nil, err
	}
	if amplitude <= 0 || period <= 0 {
		return nil, fmt.Errorf("attacks: meander amplitude and period must be positive")
	}
	if !direction.IsFinite() || direction.Norm() == 0 {
		return nil, fmt.Errorf("attacks: meander needs a non-zero direction")
	}
	return &Meander{
		base:      base{name: fmt.Sprintf("meander(%.1fm/%.1fs)", amplitude, period), class: ClassMeander, win: win},
		Amplitude: amplitude, Period: period, Direction: direction.Unit(),
	}, nil
}

// Apply implements GNSSAttack.
func (a *Meander) Apply(fix sensors.GNSSFix, t float64) (sensors.GNSSFix, bool) {
	if a.win.Contains(t) {
		phase := 2 * math.Pi * (t - a.win.Start) / a.Period
		fix.Pos = fix.Pos.Add(a.Direction.Scale(a.Amplitude * math.Sin(phase)))
	}
	return fix, true
}

var (
	_ GNSSAttack = (*StepSpoof)(nil)
	_ GNSSAttack = (*DriftSpoof)(nil)
	_ GNSSAttack = (*Replay)(nil)
	_ GNSSAttack = (*Freeze)(nil)
	_ GNSSAttack = (*Delay)(nil)
	_ GNSSAttack = (*Dropout)(nil)
	_ GNSSAttack = (*NoiseInflation)(nil)
	_ GNSSAttack = (*Meander)(nil)
)
