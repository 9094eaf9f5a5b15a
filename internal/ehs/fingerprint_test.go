package ehs

import (
	"sync"
	"testing"

	"kagura/internal/compress"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// fingerprintGolden pins Config.Fingerprint. Persisted checkpoints record it
// as their ConfigHash, so a changed value orphans every stored snapshot; the
// hex strings were recorded when the trace was still synthesized eagerly.
var fingerprintGolden = []struct {
	trace string
	seed  uint64
	full  bool // ACC+BDI+Kagura instead of the compressor-free baseline
	want  string
}{
	{"RFHome", 1, false, "56aa515341c96602d523cf42eca90648b5970a513a29cfa742f498d09300473d"},
	{"RFHome", 1, true, "45cbe10c4b2d733ba58721372541730e8cf4a7c2ab54b4b2341960cad5e6fb10"},
	{"RFHome", 77, false, "089f4ad2cb04e33866979ffc71fe9a820bdbd049513041f2077c1a0c60dfa083"},
	{"RFHome", 77, true, "7e3b7799f8c8bac15a7e04a57e7de0435584a752f93672b3a4cb50c4f21b52d4"},
	{"Solar", 1, false, "12a2f1cb11eb6a62f327d4e747aa44b27b9177a57389619c38e0f9776194d1fd"},
	{"Solar", 1, true, "7ee8cf60b639c2d6e86d2c2cdacc846907e7aa8f3abc91a387805435a59f2ec4"},
	{"Solar", 77, false, "2572a6bf6ff167b33273e80966c3d35898e81e7eae0d946534d48597c8d31299"},
	{"Solar", 77, true, "8035360eedc9892a41fffb084b306b9505e54fc7a6092cbcdb54dce48913bc9e"},
	{"Thermal", 1, false, "c18464aa797be2933e3d497a85b112e0ee8ab3c09ad87d4a76ae0d1e18a36684"},
	{"Thermal", 1, true, "aafce648d090b2b2c666c98d433e7aa0ac236385a3477e7bfa75feb60a834187"},
	{"Thermal", 77, false, "f75dc44c3611980856c58dc4416e673966987cef3c31330c8fc7d1784a7b60cf"},
	{"Thermal", 77, true, "1a57be111d585034ee389f7ea1bdd15b8ee0cb37a01056ee00dc75c2b691f98b"},
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

// Fingerprint allocated 25 times per call when it hashed the samples eight
// bytes per Write; batching them must not add a per-call buffer on the heap.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := goldenConfig(t, "RFHome", 1, true)
	if n := testing.AllocsPerRun(5, func() { _ = cfg.Fingerprint() }); n > 25 {
		t.Fatalf("Fingerprint allocates %v times per call, want <= 25", n)
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
