package powertrace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestBuiltinsDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := ByName(name, 1)
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				t.Fatalf("%s: sample %d differs", name, i)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nuclear", 1); err == nil {
		t.Fatal("expected error for unknown trace")
	}
	if _, _, err := Lookup("nuclear"); err == nil {
		t.Fatal("expected error for unknown trace name")
	}
}

// Lookup must name exactly the trace ByName synthesizes, aliases included.
func TestLookupMatchesByName(t *testing.T) {
	for _, name := range []string{"RFHome", "rfhome", "rf", "RF", "Solar", "solar", "Thermal", "THERMAL"} {
		canon, _, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if canon != tr.Name {
			t.Errorf("Lookup(%q) = %q, ByName names it %q", name, canon, tr.Name)
		}
	}
}

func TestMeansMatchAcrossSources(t *testing.T) {
	// All three sources target the same mean power so the evaluation's energy
	// budget comparison (Fig 30) is apples-to-apples.
	var means []float64
	for _, name := range Names() {
		tr, _ := ByName(name, 7)
		means = append(means, tr.Summarize().MeanWatts)
	}
	for i := 1; i < len(means); i++ {
		ratio := means[i] / means[0]
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("mean power mismatch: %v", means)
		}
	}
}

func TestRFBurstierThanSolarAndThermal(t *testing.T) {
	rf := RFHome(3).Summarize()
	solar := Solar(3).Summarize()
	thermal := Thermal(3).Summarize()
	if rf.StableShare >= solar.StableShare {
		t.Errorf("RFHome stable share %.3f should be < solar %.3f", rf.StableShare, solar.StableShare)
	}
	if solar.StableShare > thermal.StableShare+0.05 {
		t.Errorf("solar stable share %.3f should be <= thermal %.3f (+tol)", solar.StableShare, thermal.StableShare)
	}
	if rf.StdDevWatts <= thermal.StdDevWatts {
		t.Errorf("RFHome stddev %.3g should exceed thermal %.3g", rf.StdDevWatts, thermal.StdDevWatts)
	}
}

func TestPowerWraps(t *testing.T) {
	tr := &Trace{Name: "x", Samples: []float64{1, 2, 3}}
	if got := tr.Power(0); got != 1 {
		t.Fatalf("Power(0) = %v", got)
	}
	if got := tr.Power(4); got != 2 {
		t.Fatalf("Power(4) = %v, want wrap to 2", got)
	}
	if got := tr.Power(3 * 1000); got != 1 {
		t.Fatalf("Power(3000) = %v", got)
	}
}

func TestPowerEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if got := tr.Power(5); got != 0 {
		t.Fatalf("empty trace power = %v, want 0", got)
	}
}

func TestRoundTripIO(t *testing.T) {
	orig := RFHome(9)
	orig.Samples = orig.Samples[:500]
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "RFHome" {
		t.Fatalf("name = %q", back.Name)
	}
	if len(back.Samples) != len(orig.Samples) {
		t.Fatalf("len = %d, want %d", len(back.Samples), len(orig.Samples))
	}
	for i := range back.Samples {
		if math.Abs(back.Samples[i]-orig.Samples[i]) > 1e-12*math.Max(1, orig.Samples[i]) {
			t.Fatalf("sample %d: %v != %v", i, back.Samples[i], orig.Samples[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("abc\n")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Read(strings.NewReader("-1.0\n")); err == nil {
		t.Fatal("expected negative power error")
	}
	if _, err := Read(strings.NewReader("# only comments\n")); err == nil {
		t.Fatal("expected empty trace error")
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	tr, err := Read(strings.NewReader("# trace Foo interval_us 10\n\n1e-6\n# mid comment\n2e-6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "Foo" || len(tr.Samples) != 2 {
		t.Fatalf("got %q %v", tr.Name, tr.Samples)
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{Name: "x", Samples: []float64{1, 2}}
	s := tr.Scale(0.5)
	if s.Samples[0] != 0.5 || s.Samples[1] != 1 {
		t.Fatalf("scaled = %v", s.Samples)
	}
	if tr.Samples[0] != 1 {
		t.Fatal("scale mutated original")
	}
}

func TestDuration(t *testing.T) {
	tr := &Trace{Samples: make([]float64, 100)}
	if d := tr.Duration(); math.Abs(d-100*IntervalSeconds) > 1e-15 {
		t.Fatalf("duration = %v", d)
	}
}

func TestSummarizePercentilesOrdered(t *testing.T) {
	s := RFHome(5).Summarize()
	if !(s.P10 <= s.P50 && s.P50 <= s.P90) {
		t.Fatalf("percentiles out of order: %+v", s)
	}
	if s.MinWatts > s.P10 || s.PeakWatts < s.P90 {
		t.Fatalf("min/peak inconsistent: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var tr Trace
	s := tr.Summarize()
	if s.MeanWatts != 0 || s.PeakWatts != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a, b := RFHome(1), RFHome(2)
	diff := 0
	for i := 0; i < 1000; i++ {
		if a.Samples[i] != b.Samples[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical traces")
	}
}
