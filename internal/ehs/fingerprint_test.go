package ehs

import (
	"context"
	"math"
	"sync"
	"testing"

	"kagura/internal/compress"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// fingerprintGolden pins Config.Fingerprint. Persisted checkpoints record it
// as their ConfigHash, so a changed value turns every stored snapshot into a
// miss. Change them only together with fingerprintTag: under an unchanged
// tag, a stale stored snapshot is quarantined as corrupt.
var fingerprintGolden = []struct {
	trace string
	seed  uint64
	full  bool // ACC+BDI+Kagura instead of the compressor-free baseline
	want  string
}{
	{"RFHome", 1, false, "fp2:232e7dfbc67498e38cad89bdd820f38645338f1daee744d365fcb57c677c69b0"},
	{"RFHome", 1, true, "fp2:e3e302ef16bcccc93eb7f29709578e7ad5e6a202e95855c277d0f3264b28c658"},
	{"RFHome", 77, false, "fp2:fb0429750c8bb59ce009c60468495d7bba9a0cdf69e84e8b307d8aab9ff6b809"},
	{"RFHome", 77, true, "fp2:91f105d989726675cd3a2ddec8033a5e34d6d98349fc1436e7b8ad0f29c04ac1"},
	{"Solar", 1, false, "fp2:e853a09baab20dd0c030669f619b13eecfe51b5d15ead442e98009acb8b0f974"},
	{"Solar", 1, true, "fp2:33436426d772e432cc716ab60688bb2c9504f4f83104a63332ff00191085dd76"},
	{"Solar", 77, false, "fp2:2defa5cfb943496183ce297de6f8047d1b248e92d284d4a4c0ff98720fe06e95"},
	{"Solar", 77, true, "fp2:215c15d74b33a97c882cc97f6965b2394902b12df21b3d6435fb84f7acf1c1db"},
	{"Thermal", 1, false, "fp2:4d251408f6c5464efe886b47ba131582be4ce060f447025be2f5c3766d03bc21"},
	{"Thermal", 1, true, "fp2:dccc1c2990cb632fcb96a80e1dd79ede297138e30580b4fc9519d9f65ee3085f"},
	{"Thermal", 77, false, "fp2:4c13c46af2453ea598c5bedadb66c87fc1d20daa32d9c77fa85ad41551680311"},
	{"Thermal", 77, true, "fp2:190505870110033a8072f00e646610112d7dca7842057fd9f3bd2e6e720a160b"},
}

func goldenConfig(t *testing.T, trace string, seed uint64, full bool) Config {
	t.Helper()
	app, err := workload.ByName("jpeg", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := powertrace.ByName(trace, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(app, tr)
	if full {
		cfg = cfg.WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
	}
	return cfg
}

func TestFingerprintGolden(t *testing.T) {
	for _, g := range fingerprintGolden {
		if got := goldenConfig(t, g.trace, g.seed, g.full).Fingerprint(); got != g.want {
			t.Errorf("%s seed %d full=%t: fingerprint %s, want %s", g.trace, g.seed, g.full, got, g.want)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds, whose instrumentation
// allocates on its own.
var raceEnabled bool

// Fingerprint allocates 24 times per call, all in formatting the config:
// neither the trace's identity nor the tagged hex, encoded on the stack, may
// add a heap allocation.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := goldenConfig(t, "RFHome", 1, true)
	if n := testing.AllocsPerRun(5, func() { _ = cfg.Fingerprint() }); n > 24 {
		t.Fatalf("Fingerprint allocates %v times per call, want <= 24", n)
	}
}

func TestFingerprintDistinct(t *testing.T) {
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = float64(i%97) * 1e-6
	}
	flipped := append([]float64(nil), samples...)
	flipped[1234] = math.Float64frombits(math.Float64bits(flipped[1234]) ^ 1)
	longer := append(append([]float64(nil), samples...), 0)

	app, err := workload.ByName("jpeg", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(tr *powertrace.Trace) string { return Default(app, tr).Fingerprint() }
	explicit := fp(powertrace.FromSamples("x", samples))
	rf1 := fp(powertrace.RFHome(1))
	for _, c := range []struct {
		what string
		a, b string
	}{
		{"seed", rf1, fp(powertrace.RFHome(2))},
		{"source", rf1, fp(powertrace.Solar(1))},
		{"length", explicit, fp(powertrace.FromSamples("x", longer))},
		{"one flipped sample", explicit, fp(powertrace.FromSamples("x", flipped))},
		{"trace name", explicit, fp(powertrace.FromSamples("y", samples))},
		// Equal samples under different identities: a memo miss, never a
		// wrong hit.
		{"explicit copy of a built-in", rf1, fp(powertrace.FromSamples("RFHome", samplesOf(powertrace.RFHome(1))))},
	} {
		if c.a == c.b {
			t.Errorf("changing the %s left the fingerprint at %s", c.what, c.a)
		}
	}
	if again := fp(powertrace.RFHome(1)); again != rf1 {
		t.Errorf("two RFHome(1) traces fingerprint %s and %s", rf1, again)
	}
	if again := fp(powertrace.FromSamples("x", samples)); again != explicit {
		t.Errorf("two equal explicit traces fingerprint %s and %s", explicit, again)
	}
}

func samplesOf(tr *powertrace.Trace) []float64 {
	var out []float64
	tr.Each(func(block []float64) { out = append(out, block...) })
	return out
}

// Fingerprinting a config, and snapshotting a run (which records the
// fingerprint), must synthesize no trace sample beyond those the run read.
func TestFingerprintSynthesizesNoSamples(t *testing.T) {
	cfg := goldenConfig(t, "RFHome", 1, true)
	cfg.Fingerprint()
	if n := cfg.Trace.Synthesized(); n != 0 {
		t.Fatalf("Fingerprint synthesized %d samples of a fresh trace", n)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToCycle(context.Background(), 50_000); err != nil {
		t.Fatal(err)
	}
	read := cfg.Trace.Synthesized()
	if read == 0 || read >= cfg.Trace.Len() {
		t.Fatalf("a 50k-cycle run left %d of %d samples synthesized", read, cfg.Trace.Len())
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.ConfigHash != cfg.Fingerprint() {
		t.Fatalf("snapshot ConfigHash %s, want the config's fingerprint", snap.ConfigHash)
	}
	if n := cfg.Trace.Synthesized(); n != read {
		t.Fatalf("Snapshot and Fingerprint grew the synthesized prefix from %d to %d samples", read, n)
	}
}

func TestIsLegacyFingerprint(t *testing.T) {
	for _, c := range []struct {
		hash   string
		legacy bool
	}{
		{fingerprintGolden[0].want, false},
		{goldenConfig(t, "Solar", 3, false).Fingerprint(), false},
		{"56aa515341c96602d523cf42eca90648b5970a513a29cfa742f498d09300473d", true},
		{"golden-config-fingerprint", true},
	} {
		if got := IsLegacyFingerprint(c.hash); got != c.legacy {
			t.Errorf("IsLegacyFingerprint(%q) = %t, want %t", c.hash, got, c.legacy)
		}
	}
}

// One trace shared by concurrent runs and fingerprints, as the Lab shares it,
// must fill race-free and read the same samples as a trace read alone.
func TestFingerprintSharedTraceConcurrent(t *testing.T) {
	g := fingerprintGolden[1]
	cfg := goldenConfig(t, g.trace, g.seed, g.full)
	ref := powertrace.RFHome(g.seed)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := int64(ref.Len()) - 1 - int64(w); i >= 0; i -= 997 {
				if got, want := cfg.Trace.Power(i), ref.Power(i); got != want {
					t.Errorf("Power(%d) = %v, want %v", i, got, want)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			if got := cfg.Fingerprint(); got != g.want {
				t.Errorf("concurrent fingerprint %s, want %s", got, g.want)
			}
		}()
	}
	wg.Wait()
}
