package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordAndQuery(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		if err := tr.Record("x", float64(i), float64(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len("x") != 10 {
		t.Fatalf("Len = %d", tr.Len("x"))
	}
	if v, ok := tr.At("x", 3.5); !ok || v != 9 {
		t.Errorf("At(3.5) = %g, %v; want 9 (zero-order hold)", v, ok)
	}
	if _, ok := tr.At("x", -1); ok {
		t.Error("At before first sample should be !ok")
	}
}

func TestRecordValidation(t *testing.T) {
	tr := New()
	if err := tr.Record("", 0, 1); err == nil {
		t.Error("empty name accepted")
	}
	if err := tr.Record("x", math.NaN(), 1); err == nil {
		t.Error("NaN time accepted")
	}
	if err := tr.Record("x", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Record("x", 0.5, 0); err == nil {
		t.Error("backwards time accepted")
	}
	// Equal timestamps are fine (multiple events in one step).
	if err := tr.Record("x", 1, 2); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestSignalsOrder(t *testing.T) {
	tr := New()
	tr.Column("b").MustAppend(0, 1)
	tr.Column("a").MustAppend(0, 1)
	tr.Column("b").MustAppend(1, 2)
	got := tr.Signals()
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("Signals = %v, want first-appearance order [b a]", got)
	}
}

func TestSignalStats(t *testing.T) {
	tr := New()
	for i, v := range []float64{1, -3, 2} {
		tr.Column("s").MustAppend(float64(i), v)
	}
	st := tr.SignalStats("s")
	if st.Count != 3 || st.Min != -3 || st.Max != 2 || st.AbsMax != 3 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.Mean-0) > 1e-12 {
		t.Errorf("mean = %g", st.Mean)
	}
	wantRMS := math.Sqrt((1 + 9 + 4) / 3.0)
	if math.Abs(st.RMS-wantRMS) > 1e-12 {
		t.Errorf("rms = %g, want %g", st.RMS, wantRMS)
	}
	if z := tr.SignalStats("none"); z.Count != 0 {
		t.Errorf("missing signal stats = %+v", z)
	}
}

func TestCSVExport(t *testing.T) {
	tr := New()
	tr.Column("a").MustAppend(0, 1)
	tr.Column("a").MustAppend(1, 2)
	tr.Column("b").MustAppend(1, 5)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	// b has no sample at t=0 → empty cell.
	if lines[1] != "0,1," {
		t.Errorf("row0 = %q", lines[1])
	}
	if lines[2] != "1,2,5" {
		t.Errorf("row1 = %q", lines[2])
	}
}

func TestJSONRoundtrip(t *testing.T) {
	tr := New()
	tr.Column("x").MustAppend(0, 1.5)
	tr.Column("x").MustAppend(0.1, -2.5)
	tr.Column("y").MustAppend(0.05, 7)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len("x") != 2 || got.Len("y") != 1 {
		t.Errorf("roundtrip lens: x=%d y=%d", got.Len("x"), got.Len("y"))
	}
	if v, _ := got.At("x", 0.1); v != -2.5 {
		t.Errorf("roundtrip value = %g", v)
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("corrupt json accepted")
	}
	// Backwards time in file.
	bad := `{"signals":{"x":[{"T":1,"Value":0},{"T":0,"Value":0}]},"order":["x"]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("non-monotone file accepted")
	}
}

func TestDownsample(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Column("s").MustAppend(float64(i), float64(i))
	}
	ds := tr.Downsample("s", 10)
	if len(ds) != 11 { // 0,10,...,90 plus final 99
		t.Errorf("downsample len = %d", len(ds))
	}
	if ds[len(ds)-1].T != 99 {
		t.Error("downsample must keep last sample")
	}
	if got := tr.Downsample("s", 1); len(got) != 100 {
		t.Errorf("n=1 should copy all, got %d", len(got))
	}
}

func TestAtZeroOrderHoldProperty(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Column("s").MustAppend(float64(i), float64(i))
	}
	f := func(q float64) bool {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return true
		}
		q = math.Abs(math.Mod(q, 49))
		v, ok := tr.At("s", q)
		return ok && v == math.Floor(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
