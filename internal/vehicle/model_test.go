package vehicle

import (
	"math"
	"testing"
	"testing/quick"

	"adassure/internal/geom"
)

// instantParams returns shuttle params with actuator lags removed and
// generous rate limits so kinematic invariants can be checked exactly.
func instantParams() Params {
	p := ShuttleParams()
	p.SteerTimeConstant = 0
	p.AccelTimeConstant = 0
	p.MaxSteerRate = 100
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := ShuttleParams().Validate(); err != nil {
		t.Fatalf("shuttle params invalid: %v", err)
	}
	if err := SedanParams().Validate(); err != nil {
		t.Fatalf("sedan params invalid: %v", err)
	}
	bad := ShuttleParams()
	bad.Wheelbase = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative wheelbase accepted")
	}
	bad = ShuttleParams()
	bad.MaxSteer = 2
	if err := bad.Validate(); err == nil {
		t.Error("max steer >= π/2 accepted")
	}
}

func TestMinTurnRadius(t *testing.T) {
	p := ShuttleParams()
	want := p.Wheelbase / math.Tan(p.MaxSteer)
	if got := p.MinTurnRadius(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MinTurnRadius = %g, want %g", got, want)
	}
}

func TestKinematicStraightLine(t *testing.T) {
	m := NewKinematic(instantParams())
	s := State{Speed: 5}
	for i := 0; i < 100; i++ {
		s = m.Step(s, Command{Steer: 0, Accel: 0}, 0.01)
	}
	// 1 second at 5 m/s straight ahead.
	if math.Abs(s.X-5) > 1e-6 || math.Abs(s.Y) > 1e-9 {
		t.Errorf("straight line end = (%.6f, %.6f), want (5, 0)", s.X, s.Y)
	}
	if math.Abs(s.Heading) > 1e-12 {
		t.Errorf("heading drifted to %g", s.Heading)
	}
}

func TestKinematicCircleRadius(t *testing.T) {
	p := instantParams()
	m := NewKinematic(p)
	steer := 0.3
	wantR := p.Wheelbase / math.Tan(steer)
	s := State{Speed: 3, Steer: steer}
	// Drive a full loop; track max distance from the turning center.
	cx, cy := 0.0, wantR // center is left of the start for positive steer
	dt := 0.005
	maxErr := 0.0
	for i := 0; i < 20000; i++ {
		s = m.Step(s, Command{Steer: steer, Accel: 0}, dt)
		r := math.Hypot(s.X-cx, s.Y-cy)
		if e := math.Abs(r - wantR); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.02*wantR {
		t.Errorf("circle radius error %.4f m exceeds 2%% of R=%.2f", maxErr, wantR)
	}
}

func TestKinematicSpeedSaturation(t *testing.T) {
	p := instantParams()
	m := NewKinematic(p)
	s := State{Speed: p.MaxSpeed - 0.1}
	for i := 0; i < 1000; i++ {
		s = m.Step(s, Command{Accel: 10}, 0.01)
	}
	if s.Speed > p.MaxSpeed+1e-9 {
		t.Errorf("speed %g exceeds cap %g", s.Speed, p.MaxSpeed)
	}
	// Speed never goes negative under full brake.
	for i := 0; i < 1000; i++ {
		s = m.Step(s, Command{Accel: -100}, 0.01)
	}
	if s.Speed < 0 {
		t.Errorf("speed went negative: %g", s.Speed)
	}
}

func TestKinematicSteerSaturation(t *testing.T) {
	p := ShuttleParams()
	m := NewKinematic(p)
	s := State{Speed: 2}
	for i := 0; i < 500; i++ {
		s = m.Step(s, Command{Steer: 10}, 0.01)
		if math.Abs(s.Steer) > p.MaxSteer+1e-12 {
			t.Fatalf("steer %g exceeds limit %g", s.Steer, p.MaxSteer)
		}
	}
}

func TestKinematicSteerRateLimit(t *testing.T) {
	p := ShuttleParams()
	p.SteerTimeConstant = 0 // isolate the rate limit
	m := NewKinematic(p)
	s := State{Speed: 2}
	dt := 0.01
	prev := s.Steer
	for i := 0; i < 200; i++ {
		s = m.Step(s, Command{Steer: p.MaxSteer}, dt)
		if rate := math.Abs(s.Steer-prev) / dt; rate > p.MaxSteerRate+1e-9 {
			t.Fatalf("steer rate %g exceeds limit %g", rate, p.MaxSteerRate)
		}
		prev = s.Steer
	}
}

func TestKinematicRejectsNonFiniteCommands(t *testing.T) {
	m := NewKinematic(ShuttleParams())
	s := State{Speed: 3, Steer: 0.1}
	next := m.Step(s, Command{Steer: math.NaN(), Accel: math.Inf(1)}, 0.01)
	if math.IsNaN(next.X) || math.IsNaN(next.Heading) || math.IsNaN(next.Speed) {
		t.Error("NaN command leaked into state")
	}
	// NaN steer holds current steering; Inf accel brakes.
	if next.Accel > 0 {
		t.Errorf("non-finite accel should brake, got %g", next.Accel)
	}
}

func TestKinematicStepPanicsOnBadDt(t *testing.T) {
	m := NewKinematic(ShuttleParams())
	defer func() {
		if recover() == nil {
			t.Error("dt<=0 should panic")
		}
	}()
	m.Step(State{}, Command{}, 0)
}

func TestKinematicDeterminismProperty(t *testing.T) {
	m := NewKinematic(ShuttleParams())
	f := func(steer, accel, speed float64) bool {
		if math.IsNaN(steer) || math.IsNaN(accel) || math.IsNaN(speed) {
			return true
		}
		s := State{Speed: math.Abs(math.Mod(speed, 8))}
		cmd := Command{Steer: math.Mod(steer, 1), Accel: math.Mod(accel, 3)}
		a := m.Step(s, cmd, 0.02)
		b := m.Step(s, cmd, 0.02)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKinematicStateStaysFiniteProperty(t *testing.T) {
	m := NewKinematic(ShuttleParams())
	f := func(steer, accel float64, n uint8) bool {
		s := State{Speed: 2}
		cmd := Command{Steer: steer, Accel: accel} // arbitrary, incl. NaN/Inf from quick
		for i := 0; i < int(n%50)+1; i++ {
			s = m.Step(s, cmd, 0.02)
		}
		return !math.IsNaN(s.X) && !math.IsNaN(s.Y) && !math.IsNaN(s.Heading) &&
			!math.IsNaN(s.Speed) && math.Abs(s.Heading) <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeadingAlwaysNormalized(t *testing.T) {
	m := NewKinematic(instantParams())
	s := State{Speed: 5}
	for i := 0; i < 5000; i++ {
		s = m.Step(s, Command{Steer: 0.5, Accel: 0}, 0.02)
		if s.Heading <= -math.Pi || s.Heading > math.Pi {
			t.Fatalf("heading %g escaped (-π, π] at step %d", s.Heading, i)
		}
	}
	_ = geom.NormalizeAngle // keep import for clarity of intent
}
