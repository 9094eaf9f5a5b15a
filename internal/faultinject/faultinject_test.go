package faultinject

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// The test.* points this package's tests arm; declared like the registry's
// own points, so Enable accepts them.
var (
	ptDisabled     = newPoint("test.disabled")
	ptNth          = newPoint("test.nth")
	ptEvery        = newPoint("test.every")
	ptProb         = newPoint("test.prob")
	ptPanic        = newPoint("test.panic")
	ptLatency      = newPoint("test.latency")
	ptLatencyShort = newPoint("test.latency.short")
	ptCorrupt      = newPoint("test.corrupt")
	ptCorrupt2     = newPoint("test.corrupt2")
	ptFireErr      = newPoint("test.fireerr")
	ptReplace      = newPoint("test.replace")
	ptCatalogA     = newPoint("test.catalog.a")
	ptCatalogB     = newPoint("test.catalog.b")
	ptInterleave   = newPoint("test.interleave")
	ptReplaceOther = newPoint("test.replace.other")
)

// arm enables a plan for the test and disarms it on cleanup, so tests cannot
// leak chaos into each other.
func arm(t *testing.T, p Plan) {
	t.Helper()
	if err := Enable(p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Disable)
}

func TestDisabledFireIsNil(t *testing.T) {
	Disable()
	for i := 0; i < 100; i++ {
		if err := ptDisabled.Fire(context.Background()); err != nil {
			t.Fatalf("disabled point injected: %v", err)
		}
	}
	if got := ptDisabled.CorruptBytes([]byte{1, 2, 3}); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatal("disabled point corrupted bytes")
	}
}

func TestNthTrigger(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.nth", Kind: KindError, Nth: 3}}})
	for i := 1; i <= 5; i++ {
		err := ptNth.Fire(context.Background())
		if (i == 3) != (err != nil) {
			t.Fatalf("occurrence %d: err = %v", i, err)
		}
		if err != nil {
			var inj *InjectedError
			if !errors.As(err, &inj) {
				t.Fatalf("injected error has type %T", err)
			}
			if inj.Point != "test.nth" || inj.Occurrence != 3 {
				t.Fatalf("injected error %+v", inj)
			}
		}
	}
	if got := ptNth.Fires(); got != 1 {
		t.Fatalf("Fires = %d, want 1", got)
	}
}

func TestEveryAndLimit(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.every", Kind: KindError, Every: 2, Limit: 2}}})
	var hits []int
	for i := 1; i <= 10; i++ {
		if ptEvery.Fire(context.Background()) != nil {
			hits = append(hits, i)
		}
	}
	if len(hits) != 2 || hits[0] != 2 || hits[1] != 4 {
		t.Fatalf("every=2 limit=2 fired at %v, want [2 4]", hits)
	}
}

// TestProbabilityDeterministic: the same seed yields the same occurrence
// schedule, and a different seed yields a different one.
func TestProbabilityDeterministic(t *testing.T) {
	schedule := func(seed uint64) []bool {
		arm(t, Plan{Seed: seed, Rules: []Rule{{Point: "test.prob", Kind: KindError, Probability: 0.3}}})
		out := make([]bool, 200)
		for i := range out {
			out[i] = ptProb.Fire(context.Background()) != nil
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at occurrence %d", i+1)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
	n := 0
	for _, hit := range a {
		if hit {
			n++
		}
	}
	if n < 30 || n > 90 {
		t.Fatalf("p=0.3 over 200 occurrences fired %d times", n)
	}
}

func TestPanicKind(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.panic", Kind: KindPanic, Nth: 1, Message: "boom"}}})
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok {
			t.Fatalf("recovered %T %v, want PanicValue", r, r)
		}
		if pv.Point != "test.panic" || pv.Message != "boom" {
			t.Fatalf("panic value %+v", pv)
		}
	}()
	ptPanic.Fire(context.Background())
	t.Fatal("armed panic rule did not panic")
}

func TestLatencyHonorsContext(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.latency", Kind: KindLatency, Every: 1, LatencyMicros: int64(time.Hour / time.Microsecond)}}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ptLatency.Fire(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled latency returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("latency injection ignored context cancellation")
	}
}

func TestLatencyElapses(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.latency.short", Kind: KindLatency, Nth: 1, LatencyMicros: 1000}}})
	start := time.Now()
	if err := ptLatencyShort.Fire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("latency injection returned before the delay elapsed")
	}
}

func TestCorruptBytesDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA}, 64)
	corrupt := func(seed uint64) []byte {
		arm(t, Plan{Seed: seed, Rules: []Rule{{Point: "test.corrupt", Kind: KindCorrupt, Nth: 1}}})
		return ptCorrupt.CorruptBytes(data)
	}
	a, b := corrupt(7), corrupt(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	if bytes.Equal(a, data) {
		t.Fatal("armed corrupt rule left data untouched")
	}
	if bytes.Equal(data, bytes.Repeat([]byte{0xAA}, 64)) == false {
		t.Fatal("CorruptBytes modified its input")
	}
	// Fire at a corrupt-armed point is still a no-op (corruption only applies
	// through CorruptBytes).
	arm(t, Plan{Seed: 7, Rules: []Rule{{Point: "test.corrupt2", Kind: KindCorrupt, Every: 1}}})
	if err := ptCorrupt2.Fire(context.Background()); err != nil {
		t.Fatalf("Fire at corrupt-only point returned %v", err)
	}
}

func TestFireErrSkipsBlockingKinds(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{
		{Point: "test.fireerr", Kind: KindPanic, Every: 1},
		{Point: "test.fireerr", Kind: KindLatency, Every: 1, LatencyMicros: int64(time.Hour / time.Microsecond)},
	}})
	if err := ptFireErr.FireErr(); err != nil {
		t.Fatalf("FireErr evaluated a non-error rule: %v", err)
	}
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.fireerr", Kind: KindError, Every: 1}}})
	if err := ptFireErr.FireErr(); err == nil {
		t.Fatal("FireErr missed an armed error rule")
	}
}

func TestEnableValidation(t *testing.T) {
	bad := []Rule{
		{Point: "", Kind: KindError, Nth: 1},
		{Point: "x", Kind: "bogus", Nth: 1},
		{Point: "x", Kind: KindError},                                               // no trigger
		{Point: "x", Kind: KindError, Nth: 1, Every: 2},                             // two triggers
		{Point: "x", Kind: KindError, Probability: 1.5},                             // out of range
		{Point: "x", Kind: KindError, Nth: -1},                                      // negative
		{Point: "x", Kind: KindError, Nth: 1, Limit: -1},                            // negative limit
		{Point: "x", Kind: KindLatency, Nth: 1},                                     // latency without delay
		{Point: "x", Kind: KindError, Probability: 0.5, LatencyMicros: 0, Every: 1}, // two triggers
	}
	for i, r := range bad {
		if err := Enable(Plan{Seed: 1, Rules: []Rule{r}}); err == nil {
			Disable()
			t.Errorf("rule %d (%+v) accepted", i, r)
		}
	}
	if Enabled() {
		t.Fatal("failed Enable left injection armed")
	}
}

func TestEnableReplacesAndDisableClears(t *testing.T) {
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.replace", Kind: KindError, Every: 1}}})
	if !Enabled() {
		t.Fatal("Enabled() false after Enable")
	}
	if ptReplace.Fire(context.Background()) == nil {
		t.Fatal("armed rule did not fire")
	}
	// Re-enabling with a plan for a different point disarms this one.
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: "test.replace.other", Kind: KindError, Every: 1}}})
	if ptReplace.Fire(context.Background()) != nil {
		t.Fatal("stale rule survived Enable of a new plan")
	}
	if ptReplaceOther.Fire(context.Background()) == nil {
		t.Fatal("the new plan's rule did not fire")
	}
	Disable()
	if Enabled() {
		t.Fatal("Enabled() true after Disable")
	}
}

func TestPointsCatalog(t *testing.T) {
	found := 0
	for _, p := range Points() {
		if p == ptCatalogA || p == ptCatalogB {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("catalog missing declared points: %d of 2 found", found)
	}
}

// TestInterleavingIndependence: concurrent firing does not change which
// occurrence numbers inject — the schedule is a pure function of (seed, k).
func TestInterleavingIndependence(t *testing.T) {
	run := func(parallel int) int64 {
		arm(t, Plan{Seed: 9, Rules: []Rule{{Point: "test.interleave", Kind: KindError, Probability: 0.25}}})
		done := make(chan int64, parallel)
		per := 400 / parallel
		for g := 0; g < parallel; g++ {
			go func() {
				var n int64
				for i := 0; i < per; i++ {
					if ptInterleave.Fire(context.Background()) != nil {
						n++
					}
				}
				done <- n
			}()
		}
		var total int64
		for g := 0; g < parallel; g++ {
			total += <-done
		}
		return total
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("injection count differs across interleavings: serial=%d parallel=%d", a, b)
	}
}
