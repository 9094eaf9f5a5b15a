package powertrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"kagura/internal/rng"
)

// eagerGenerate is the reference for on-demand synthesis: the whole-trace
// loop that built every sample up front before traces became lazy.
func eagerGenerate(n int, seed uint64, p synthParams) []float64 {
	r := rng.New(seed ^ p.seedMix)
	samples := make([]float64, n)
	on := r.Float64() < p.onProb
	hold := 0
	burstLevel := p.meanWatts / math.Max(p.onProb, 1e-9)
	for i := 0; i < n; i++ {
		if hold <= 0 {
			on = r.Float64() < p.onProb
			hold = 1 + r.Intn(2*p.burstHold)
		}
		hold--
		base := p.meanWatts
		if p.burstiness > 0 {
			level := 0.0
			if on {
				level = burstLevel
			}
			base = (1-p.burstiness)*p.meanWatts + p.burstiness*level
		}
		if p.driftPeriod > 0 {
			phase := 2 * math.Pi * float64(i) / float64(p.driftPeriod)
			base *= 1 + p.driftDepth*math.Sin(phase)
		}
		if p.noise > 0 {
			base *= 1 + p.noise*r.NormFloat64()
		}
		if base < 0 {
			base = 0
		}
		samples[i] = base
	}
	return samples
}

var builtinParams = map[string]synthParams{
	"RFHome":  rfHomeParams,
	"Solar":   solarParams,
	"Thermal": thermalParams,
}

var referenceSeeds = []uint64{1, 2, 1 << 40}

// samplesOf returns a copy of every sample of t, in order.
func samplesOf(t *Trace) []float64 {
	var out []float64
	t.Each(func(block []float64) { out = append(out, block...) })
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func builtin(t *testing.T, name string, seed uint64) *Trace {
	t.Helper()
	tr, err := ByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLazyMatchesEagerReference(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range referenceSeeds {
			want := eagerGenerate(defaultSamples, seed, builtinParams[name])

			byIndex := builtin(t, name, seed)
			if byIndex.Len() != len(want) {
				t.Fatalf("%s seed %d: Len %d, want %d", name, seed, byIndex.Len(), len(want))
			}
			for i, w := range want {
				if got := byIndex.Power(int64(i)); !sameBits(got, w) {
					t.Fatalf("%s seed %d: Power(%d) = %v, want %v", name, seed, i, got, w)
				}
			}

			got := samplesOf(builtin(t, name, seed))
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: Each yields %d samples, want %d", name, seed, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s seed %d: Each sample %d = %v, want %v", name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// generatorGolden pins the built-in generators' output at seed 1: the
// SHA-256 of every sample as its 8 little-endian IEEE-754 bytes.
var generatorGolden = map[string]string{
	"RFHome":  "16b77b977629a057bd2eb2c9d661067586ff23211ce55b2706c844ec52b47bb6",
	"Solar":   "198a3842a02ab4f1da91eb2e802733230a07c3ca769a4728bbcff504dd5c445b",
	"Thermal": "97f730f9c0f13bfcac4b03c48eccfa28ca0e9806c5d3e7164c55d983dab71fd6",
}

// A built-in trace's identity names its samples by generatorVersion, so
// output that changes under the same version would let a fingerprint match
// a config whose trace differs.
func TestGeneratorOutputPinnedToVersion(t *testing.T) {
	for _, name := range Names() {
		h := sha256.New()
		for _, p := range eagerGenerate(defaultSamples, 1, builtinParams[name]) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(p)))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != generatorGolden[name] {
			t.Errorf("%s seed 1 samples hash to %s, want %s: the generator's output changed. "+
				"Bump generatorVersion (now %d) in trace.go, then re-record this digest.",
				name, got, generatorGolden[name], generatorVersion)
		}
	}
}

// A built-in trace's identity is fixed at construction and reads no sample.
func TestBuiltinIdentity(t *testing.T) {
	tr := RFHome(7)
	want := fmt.Sprintf("builtin|RFHome|7|%d|gen%d", defaultSamples, generatorVersion)
	if got := tr.Identity(); got != want {
		t.Fatalf("Identity() = %q, want %q", got, want)
	}
	if n := tr.Synthesized(); n != 0 {
		t.Fatalf("Identity synthesized %d samples", n)
	}
	tr.Power(3000)
	if n := tr.Synthesized(); n != 3*chunkLen {
		t.Fatalf("reading sample 3000 synthesized %d samples, want %d", n, 3*chunkLen)
	}
	if tr.Identity() != want {
		t.Fatal("identity changed after a read")
	}
}

// An explicit trace's identity is its samples' digest: equal for equal
// samples whatever the name, and distinct from the built-in's.
func TestExplicitIdentity(t *testing.T) {
	samples := samplesOf(Solar(1))
	a, b := FromSamples("Solar", samples), FromSamples("other", samples)
	if a.Identity() != b.Identity() || a.Synthesized() != len(samples) {
		t.Fatalf("identities %q and %q, synthesized %d", a.Identity(), b.Identity(), a.Synthesized())
	}
	if a.Identity() != "samples|"+generatorGolden["Solar"] {
		t.Fatalf("Identity() = %q, want the samples' digest", a.Identity())
	}
	if a.Identity() == Solar(1).Identity() {
		t.Fatal("an explicit trace shares a built-in's identity")
	}
}

// A first read far into a fresh trace synthesizes everything before it in
// order, so it returns the reference sample and so do earlier indices after.
func TestLazyLateFirstRead(t *testing.T) {
	want := eagerGenerate(defaultSamples, 1, rfHomeParams)
	tr := RFHome(1)
	for _, i := range []int{150_000, 0, 149_999, 150_001, defaultSamples - 1} {
		if got := tr.Power(int64(i)); !sameBits(got, want[i]) {
			t.Fatalf("Power(%d) = %v, want %v", i, got, want[i])
		}
	}
}

func TestLazyPowerWraps(t *testing.T) {
	const n = defaultSamples
	want := eagerGenerate(n, 2, solarParams)
	tr := Solar(2)
	for _, tc := range []struct {
		interval int64
		index    int
	}{
		{-1, n - 1},
		{-n, 0},
		{-n - 5, n - 5},
		{n, 0},
		{n + 5, 5},
		{3*n + 150_000, 150_000},
		{math.MinInt64, int((math.MinInt64%n + n) % n)},
		{math.MaxInt64, int(math.MaxInt64 % n)},
	} {
		if got := tr.Power(tc.interval); !sameBits(got, want[tc.index]) {
			t.Errorf("Power(%d) = %v, want sample %d = %v", tc.interval, got, tc.index, want[tc.index])
		}
	}
}

// Concurrent readers of one fresh trace, some by index and some whole, all
// see the reference samples.
func TestLazyConcurrentReaders(t *testing.T) {
	want := eagerGenerate(defaultSamples, 1<<40, thermalParams)
	tr := Thermal(1 << 40)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := len(want) - 1 - 7919*w; i >= 0; i -= 613 {
				if got := tr.Power(int64(i)); !sameBits(got, want[i]) {
					t.Errorf("reader %d: Power(%d) = %v, want %v", w, i, got, want[i])
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			got := samplesOf(tr)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("Each sample %d = %v, want %v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func FuzzTraceRead(f *testing.F) {
	f.Add("# trace Foo interval_us 10\n1e-6\n\n2.5e-4\n")
	f.Add("0\n-0\n0x1p-20\n")
	f.Add("NaN\n")
	f.Add("+Inf\n")
	f.Add("1e400\n")
	f.Add("-1\n")
	f.Add("# trace\n# trace A B\n3\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		samples := samplesOf(tr)
		for i, p := range samples {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				t.Fatalf("accepted sample %d = %v", i, p)
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading written trace: %v\n%s", err, buf.String())
		}
		if back.Name != tr.Name {
			t.Fatalf("name %q round-trips as %q", tr.Name, back.Name)
		}
		if back.Identity() != tr.Identity() {
			t.Fatalf("identity %q round-trips as %q", tr.Identity(), back.Identity())
		}
		again := samplesOf(back)
		if len(again) != len(samples) {
			t.Fatalf("%d samples round-trip as %d", len(samples), len(again))
		}
		for i := range samples {
			if !sameBits(again[i], samples[i]) {
				t.Fatalf("sample %d = %v round-trips as %v", i, samples[i], again[i])
			}
		}
	})
}
