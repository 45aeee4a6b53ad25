package track

import (
	"errors"
	"math"
	"testing"

	"adassure/internal/geom"
)

func TestNewValidation(t *testing.T) {
	p, err := geom.NewPolyline([]geom.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("", p, 5); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("x", nil, 5); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := New("x", p, 0); err == nil {
		t.Error("zero speed limit accepted")
	}
	tr, err := New("x", p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "x" || tr.SpeedLimit() != 5 || tr.Path() == nil {
		t.Error("accessors wrong")
	}
}

func TestStraight(t *testing.T) {
	tr, err := Straight(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Path().Length()-200) > 1 {
		t.Errorf("length = %g, want ~200", tr.Path().Length())
	}
	if tr.Path().Closed() {
		t.Error("straight should be open")
	}
	if _, err := Straight(-1, 8); err == nil {
		t.Error("negative length accepted")
	}
	sp := tr.StartPose()
	if math.Abs(sp.Heading) > 0.01 {
		t.Errorf("start heading = %g, want ~0", sp.Heading)
	}
}

func TestCircleGeometry(t *testing.T) {
	tr, err := Circle(25, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Path().Closed() {
		t.Error("circle should be closed")
	}
	want := 2 * math.Pi * 25
	if math.Abs(tr.Path().Length()-want) > 0.02*want {
		t.Errorf("circumference = %g, want ~%g", tr.Path().Length(), want)
	}
	if _, err := Circle(0.5, 8); err == nil {
		t.Error("tiny radius accepted")
	}
}

func TestFigureEightCurvatureChangesSign(t *testing.T) {
	tr, err := FigureEight(30, 8)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg := false, false
	L := tr.Path().Length()
	for i := 0; i < 100; i++ {
		k := tr.Path().CurvatureAt(L * float64(i) / 100)
		if k > 0.005 {
			pos = true
		}
		if k < -0.005 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Errorf("figure-eight should have both turn directions (pos=%v neg=%v)", pos, neg)
	}
	if _, err := FigureEight(1, 8); err == nil {
		t.Error("small scale accepted")
	}
}

func TestDoubleLaneChangeReachesOffset(t *testing.T) {
	tr, err := DoubleLaneChange(3.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	maxY := -math.Inf(1)
	L := tr.Path().Length()
	for i := 0; i <= 200; i++ {
		y := tr.Path().PointAt(L * float64(i) / 200).Y
		if y > maxY {
			maxY = y
		}
	}
	if math.Abs(maxY-3.5) > 0.3 {
		t.Errorf("max lateral offset = %g, want ~3.5", maxY)
	}
	if _, err := DoubleLaneChange(0, 8); err == nil {
		t.Error("zero offset accepted")
	}
}

func TestUrbanLoopClosedAndDrivable(t *testing.T) {
	tr, err := UrbanLoop(8)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Path().Closed() {
		t.Error("urban loop should be closed")
	}
	if tr.Path().Length() < 150 {
		t.Errorf("urban loop suspiciously short: %g m", tr.Path().Length())
	}
	// Drivable by the shuttle: max |curvature| within its turn capability.
	const shuttleMaxKappa = 1 / 4.0 // ~4 m min radius
	L := tr.Path().Length()
	for i := 0; i < 400; i++ {
		k := math.Abs(tr.Path().CurvatureAt(L * float64(i) / 400))
		if k > shuttleMaxKappa {
			t.Fatalf("curvature %g at s=%.1f exceeds shuttle capability", k, L*float64(i)/400)
		}
	}
}

func TestHairpinTurnsAround(t *testing.T) {
	tr, err := Hairpin(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	h0 := tr.Path().HeadingAt(0)
	hEnd := tr.Path().HeadingAt(tr.Path().Length())
	if math.Abs(geom.AngleDiff(hEnd, h0)) < math.Pi*0.9 {
		t.Errorf("hairpin should reverse direction: start %g end %g", h0, hEnd)
	}
	if _, err := Hairpin(1, 8); err == nil {
		t.Error("tiny hairpin accepted")
	}
}

func TestSCurve(t *testing.T) {
	tr, err := SCurve(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Path().Closed() {
		t.Error("s-curve should be open")
	}
	if _, err := SCurve(-2, 8); err == nil {
		t.Error("negative amplitude accepted")
	}
}

func TestCatalog(t *testing.T) {
	cat, err := Catalog(8)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"circle", "double-lane-change", "figure-eight", "hairpin", "s-curve", "straight", "urban-loop"}
	names := Names(cat)
	if len(names) != len(want) {
		t.Fatalf("catalog names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("catalog names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		if cat[n].SpeedLimit() != 8 {
			t.Errorf("track %s speed limit = %g", n, cat[n].SpeedLimit())
		}
	}
}

// TestBuiltinMatchesCatalog checks that building one track by name gives
// the catalog's geometry, and that an unknown name is a typed error that
// lists the valid ones.
func TestBuiltinMatchesCatalog(t *testing.T) {
	cat, err := Catalog(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names(cat) {
		tr, err := Builtin(name, 8)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		want := cat[name]
		if tr.Name() != name || tr.SpeedLimit() != 8 ||
			math.Float64bits(tr.Path().Length()) != math.Float64bits(want.Path().Length()) ||
			tr.Path().PointAt(17.3) != want.Path().PointAt(17.3) {
			t.Errorf("Builtin(%q) differs from the catalog's track", name)
		}
	}
	_, err = Builtin("moebius-strip", 8)
	if !errors.Is(err, ErrUnknownTrack) {
		t.Fatalf("unknown name: err = %v, want ErrUnknownTrack", err)
	}
	want := `unknown track "moebius-strip" (have [circle double-lane-change figure-eight hairpin s-curve straight urban-loop])`
	if err.Error() != want {
		t.Errorf("unknown name: err = %q, want %q", err, want)
	}
}

func TestStartPoseOnPath(t *testing.T) {
	cat, err := Catalog(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names(cat) {
		tr := cat[name]
		sp := tr.StartPose()
		_, lat := tr.Path().Project(sp.Pos)
		if math.Abs(lat) > 0.01 {
			t.Errorf("%s start pose %0.3f m off path", name, lat)
		}
	}
}

// TestBuiltinSharesPathAcrossSpeedLimits: every built-in path is built
// once, so tracks of one name at different speed limits share it, and so
// does Catalog.
func TestBuiltinSharesPathAcrossSpeedLimits(t *testing.T) {
	cat, err := Catalog(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range BuiltinNames() {
		a, err := Builtin(name, DefaultSpeedLimit)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Builtin(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a.Path() != b.Path() || a.Path() != cat[name].Path() {
			t.Errorf("%s: Builtin and Catalog built the path more than once", name)
		}
		if a.Name() != name || a.SpeedLimit() != DefaultSpeedLimit || b.SpeedLimit() != 3 || cat[name].SpeedLimit() != 9 {
			t.Errorf("%s: got names %q and limits %v, %v, %v", name, a.Name(), a.SpeedLimit(), b.SpeedLimit(), cat[name].SpeedLimit())
		}
	}
	if _, err := Builtin("urban-loop", 0); err == nil {
		t.Error("zero speed limit accepted")
	}
	if _, err := Builtin("nowhere", 6); !errors.Is(err, ErrUnknownTrack) {
		t.Errorf("unknown name: err = %v", err)
	}
}
