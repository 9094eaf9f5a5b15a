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
		as, bs := samplesOf(a), samplesOf(b)
		if len(as) != len(bs) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range as {
			if as[i] != bs[i] {
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
	tr := FromSamples("x", []float64{1, 2, 3})
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
	tr := FromSamples("empty", nil)
	if got := tr.Power(5); got != 0 {
		t.Fatalf("empty trace power = %v, want 0", got)
	}
}

func TestRoundTripIO(t *testing.T) {
	full := RFHome(9)
	head := make([]float64, 500)
	for i := range head {
		head[i] = full.Power(int64(i))
	}
	orig := FromSamples(full.Name, head)
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
	if back.Len() != orig.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), orig.Len())
	}
	for i := int64(0); i < int64(back.Len()); i++ {
		if math.Abs(back.Power(i)-orig.Power(i)) > 1e-12*math.Max(1, orig.Power(i)) {
			t.Fatalf("sample %d: %v != %v", i, back.Power(i), orig.Power(i))
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"abc\n", "line 1: strconv.ParseFloat"},
		{"1e-6\n-1.0\n", "line 2: negative power -1"},
		{"# trace x\n1e-6\nNaN\n", "line 3: non-finite power NaN"},
		{"1e-6\n\n+Inf\n", "line 3: non-finite power +Inf"},
		{"-inf\n", "line 1: non-finite power -Inf"},
		{"1e400\n", "line 1: strconv.ParseFloat"},
		{"# only comments\n", "empty trace"},
	} {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%q) error = %v, want it to mention %q", tc.in, err, tc.want)
		}
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	tr, err := Read(strings.NewReader("# trace Foo interval_us 10\n\n1e-6\n# mid comment\n2e-6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "Foo" || tr.Len() != 2 || tr.Power(0) != 1e-6 || tr.Power(1) != 2e-6 {
		t.Fatalf("got %q %v", tr.Name, samplesOf(tr))
	}
}

// The first "# trace NAME" comment names the trace; later ones, and a bare
// "# trace", do not.
func TestReadFirstTraceCommentNames(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"# trace A\n# trace B\n1e-6\n", "A"},
		{"# trace\n# trace A B\n1e-6\n# trace C\n", "A"},
		{"1e-6\n# trace Late\n", "Late"},
		{"# other A\n1e-6\n", "unnamed"},
	} {
		tr, err := Read(strings.NewReader(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name != c.want {
			t.Errorf("Read(%q) names the trace %q, want %q", c.in, tr.Name, c.want)
		}
	}
}

func TestDuration(t *testing.T) {
	tr := FromSamples("x", make([]float64, 100))
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
		if a.Power(int64(i)) != b.Power(int64(i)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical traces")
	}
}
