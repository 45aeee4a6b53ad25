package stream_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"adassure/internal/core"
	"adassure/internal/obs"
	"adassure/internal/stream"
)

// cruiseFrame synthesises frame k of an endless clean cruise: constant
// 5 m/s along the +x axis with every sensor in agreement. No catalog
// assertion fires on this stream, at any length — the steady state the
// soak and allocation tests pin their budgets on.
func cruiseFrame(k int64) core.Frame {
	const dt, v = 0.05, 5.0
	t := float64(k) * dt
	x := v * t
	return core.Frame{
		T: t, Dt: dt,
		EstX: x, EstY: 0, EstHeading: 0, EstSpeed: v, EstYawRate: 0, EstPosStdDev: 0.3,
		GNSSX: x, GNSSY: 0, GNSSSpeed: v, GNSSCourse: 0, GNSSAge: 0.01, GNSSValid: true,
		IMUHeading: 0, IMUYawRate: 0, IMUAccel: 0, IMUAge: 0.01,
		OdomSpeed: v, OdomAge: 0.01,
		CmdSteer: 0, CmdAccel: 0,
		RefS: x, CTE: 0, HeadingErr: 0, Curvature: 0, TargetSpeed: v, Progress: x,
		NIS: 1, NISFresh: true,
		TrueX: x, TrueY: 0, TrueHeading: 0, TrueSpeed: v, TrueCTE: 0,
	}
}

func newSession(t *testing.T, cfg stream.Config) *stream.Session {
	t.Helper()
	s, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseFrameContract(t *testing.T) {
	cases := []struct {
		name, line, reason string
	}{
		{"empty", "", stream.RejectSyntax},
		{"null", "null", stream.RejectNotObject},
		{"scalar", "42", stream.RejectNotObject},
		{"array", `[{"T":1}]`, stream.RejectNotObject},
		{"truncated", `{"T": 1`, stream.RejectSyntax},
		{"garbage", "not json at all", stream.RejectNotObject},
		{"unknown-field", `{"T":1,"Bogus":2}`, stream.RejectSchema},
		{"wrong-type", `{"T":"one"}`, stream.RejectSchema},
		{"non-finite", `{"T":1e999}`, stream.RejectNonFinite},
		{"trailing", `{"T":1} {"T":2}`, stream.RejectSyntax},
		{"stddev-wrong-type", `{"T":1,"EstPosStdDev":"wide"}`, stream.RejectSchema},
		{"stddev-overflow", `{"T":1,"EstPosStdDev":1e999}`, stream.RejectNonFinite},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := stream.ParseFrame([]byte(c.line))
			var fe *stream.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("ParseFrame(%q) err = %v, want *FrameError", c.line, err)
			}
			if fe.Reason != c.reason {
				t.Fatalf("ParseFrame(%q) reason = %q, want %q", c.line, fe.Reason, c.reason)
			}
			if stream.Terminal(err) {
				t.Fatalf("a single frame rejection must not be terminal")
			}
		})
	}
	f, err := stream.ParseFrame([]byte(`{"T":1.5,"Dt":0.05,"EstSpeed":3,"GNSSValid":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.T != 1.5 || f.EstSpeed != 3 || !f.GNSSValid {
		t.Fatalf("parsed frame = %+v", f)
	}
	// A frame without a position estimate (a dead-reckoning fallback)
	// encodes EstPosStdDev as null and parses back to +Inf.
	noEst := cruiseFrame(3)
	noEst.EstPosStdDev = core.StdDev(math.Inf(1))
	line, err := json.Marshal(noEst)
	if err != nil {
		t.Fatal(err)
	}
	if f, err = stream.ParseFrame(line); err != nil || f != noEst {
		t.Fatalf("ParseFrame(%s) = %+v, %v; want the frame back", line, f, err)
	}
}

func TestOutOfOrderFramesRejected(t *testing.T) {
	s := newSession(t, stream.Config{})
	if err := s.Ingest(cruiseFrame(10)); err != nil {
		t.Fatal(err)
	}
	// Equal timestamps are legal, matching offline recording validation.
	if err := s.Ingest(cruiseFrame(10)); err != nil {
		t.Fatalf("equal-time frame rejected: %v", err)
	}
	err := s.Ingest(cruiseFrame(3))
	var fe *stream.FrameError
	if !errors.As(err, &fe) || fe.Reason != stream.RejectOutOfOrder {
		t.Fatalf("regressed frame err = %v, want out-of-order *FrameError", err)
	}
	st := s.Stats()
	if st.Frames != 2 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 2 accepted / 1 rejected", st)
	}
}

func TestErrorBudgetAbsorbsThenTerminates(t *testing.T) {
	var events []stream.Event
	s := newSession(t, stream.Config{
		ErrorBudget: 3,
		Sink:        func(e stream.Event) { events = append(events, e) },
	})
	for i := 0; i < 3; i++ {
		err := s.IngestLine([]byte("garbage"))
		if err == nil || stream.Terminal(err) {
			t.Fatalf("reject %d: err = %v, want absorbed *FrameError", i, err)
		}
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 frame-rejected", len(events))
	}
	for i, e := range events {
		if e.Kind != stream.EventFrameRejected || e.Reject == nil {
			t.Fatalf("event %d = %+v, want frame-rejected", i, e)
		}
		if want := 2 - i; e.Reject.BudgetLeft != want {
			t.Fatalf("event %d budget_left = %d, want %d", i, e.Reject.BudgetLeft, want)
		}
	}
	err := s.IngestLine([]byte("garbage"))
	var be *stream.BudgetError
	if !errors.As(err, &be) || !stream.Terminal(err) {
		t.Fatalf("budget-breaking reject err = %v, want terminal *BudgetError", err)
	}
	if be.Rejected != 4 || be.Last == nil {
		t.Fatalf("budget error = %+v", be)
	}
	// The breaking reject emits no event: the caller owns the terminal
	// close, so a stream can still die with a clean HTTP status.
	if len(events) != 3 {
		t.Fatalf("terminal reject emitted an event: %d total", len(events))
	}
}

func TestNegativeBudgetToleratesNothing(t *testing.T) {
	s := newSession(t, stream.Config{ErrorBudget: -1})
	err := s.IngestLine([]byte("garbage"))
	if !stream.Terminal(err) {
		t.Fatalf("first bad line err = %v, want terminal", err)
	}
}

func TestBlankLinesSkippedSilently(t *testing.T) {
	s := newSession(t, stream.Config{ErrorBudget: -1})
	for _, ln := range []string{"", "   ", "\t", "\r"} {
		if err := s.IngestLine([]byte(ln)); err != nil {
			t.Fatalf("blank line %q: %v", ln, err)
		}
	}
	if st := s.Stats(); st.Frames != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want untouched", st)
	}
}

func TestHeartbeatCadence(t *testing.T) {
	var beats []stream.Event
	s := newSession(t, stream.Config{
		Heartbeat: 5,
		Sink: func(e stream.Event) {
			if e.Kind == stream.EventHeartbeat {
				beats = append(beats, e)
			}
		},
	})
	for k := int64(0); k < 12; k++ {
		if err := s.Ingest(cruiseFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	if len(beats) != 2 {
		t.Fatalf("got %d heartbeats over 12 frames at cadence 5, want 2", len(beats))
	}
	if beats[0].Frames != 5 || beats[1].Frames != 10 {
		t.Fatalf("heartbeat frame counts = %d, %d, want 5, 10", beats[0].Frames, beats[1].Frames)
	}
	if beats[1].T != cruiseFrame(9).T {
		t.Fatalf("heartbeat t = %g, want %g", beats[1].T, cruiseFrame(9).T)
	}
}

func TestCloseIsIdempotentAndFinal(t *testing.T) {
	var closes int
	s := newSession(t, stream.Config{Sink: func(e stream.Event) {
		if e.Kind == stream.EventSessionClosed {
			closes++
		}
	}})
	if err := s.Ingest(cruiseFrame(0)); err != nil {
		t.Fatal(err)
	}
	st1 := s.CloseWith(stream.ReasonDrain, 0)
	st2 := s.Close()
	if closes != 1 {
		t.Fatalf("%d session-closed events, want exactly 1", closes)
	}
	if st1 != st2 {
		t.Fatalf("close stats diverged: %+v vs %+v", st1, st2)
	}
	if !s.Closed() {
		t.Fatal("session not marked closed")
	}
	if err := s.Ingest(cruiseFrame(1)); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("ingest after close err = %v, want ErrClosed", err)
	}
	if err := s.IngestLine([]byte("{}")); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("ingest-line after close err = %v, want ErrClosed", err)
	}
	if !stream.Terminal(stream.ErrClosed) {
		t.Fatal("ErrClosed must be terminal")
	}
}

func TestConsumeStopsAtTerminalError(t *testing.T) {
	// Budget 1: first garbage line absorbed, second terminal at line 4.
	s := newSession(t, stream.Config{ErrorBudget: 1})
	in := `{"T":1}
garbage one
{"T":2}
garbage two
{"T":3}
`
	err := s.Consume(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("Consume err = %v, want terminal annotated with line 4", err)
	}
	var be *stream.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Consume err = %v, want *BudgetError in chain", err)
	}
	if st := s.Stats(); st.Frames != 2 || st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 2 accepted / 2 rejected (line 5 never read)", st)
	}
}

func TestConsumeRejectsOverlongLine(t *testing.T) {
	s := newSession(t, stream.Config{})
	long := bytes.Repeat([]byte("x"), stream.MaxLineBytes+2)
	if err := s.Consume(bytes.NewReader(long)); err == nil {
		t.Fatal("over-long line must be a terminal error")
	}
}

func TestSessionStreamsViolations(t *testing.T) {
	// A GNSS freeze on the cruise: the fix stops following the vehicle,
	// so consistency assertions must open an episode mid-stream.
	var opened, closed, diagnosed int
	s := newSession(t, stream.Config{Sink: func(e stream.Event) {
		switch e.Kind {
		case stream.EventViolationOpened:
			opened++
		case stream.EventViolationClosed:
			closed++
		case stream.EventDiagnosis:
			diagnosed++
		}
	}})
	for k := int64(0); k < 400; k++ {
		f := cruiseFrame(k)
		if k >= 100 && k < 200 {
			frozen := cruiseFrame(100)
			f.GNSSX, f.GNSSY = frozen.GNSSX, frozen.GNSSY
			f.GNSSSpeed, f.GNSSCourse = 0, 0
		}
		if err := s.Ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Close()
	if opened == 0 {
		t.Fatal("freeze attack opened no episodes")
	}
	if closed == 0 || diagnosed != closed {
		t.Fatalf("closed = %d, diagnosed = %d; every close must publish a diagnosis", closed, diagnosed)
	}
	if st.Violations != int64(opened) {
		t.Fatalf("stats.Violations = %d, opened events = %d", st.Violations, opened)
	}
	if int64(opened-closed) != st.OpenEpisodes {
		t.Fatalf("open episodes = %d, want %d", st.OpenEpisodes, opened-closed)
	}
}

// TestSessionCountersExactAfterClose: the monitor's frame and eval
// counters lag by up to one timing sample period while a session runs
// and are exact once it closes.
func TestSessionCountersExactAfterClose(t *testing.T) {
	reg := obs.NewRegistry()
	s := newSession(t, stream.Config{Obs: reg})
	const n = 2*obs.SampleEvery + 6
	for k := int64(0); k < n; k++ {
		if err := s.Ingest(cruiseFrame(k)); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Counter("monitor.frames").Value() == n {
		t.Fatal("the counters were exact before close: the test cannot show the close flush")
	}
	s.Close()
	names := []string{"monitor.frames", "stream.frames"}
	for _, e := range core.NewCatalog(core.CatalogConfig{}) {
		names = append(names, "monitor."+e.Assertion.ID()+".evals")
	}
	for _, name := range names {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d after close, want %d", name, got, n)
		}
	}
}
