package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"kagura/internal/faultinject"
	"kagura/internal/obs"
)

// sweepSpecs returns a base spec plus policy-sweep variants of it.
func sweepSpecs() []RunSpec {
	base := quickSpec()
	v1, v2 := base, base
	v1.Policy = "MIAD"
	v2.Policy = "AIAD"
	return []RunSpec{base, v1, v2}
}

// forkCycles picks a fork point inside the base run: half its cycle count.
func forkCycles(t *testing.T, svc *Service, base RunSpec) int64 {
	t.Helper()
	rr, err := svc.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	return int64(rr.ExecSeconds/5e-9) / 2
}

func TestSubmitBatchForkSharesOneWarmPrefix(t *testing.T) {
	// Fork point from a throwaway service, so the batch service's result
	// cache is cold (a memoized base result would skip its warm start).
	specs := sweepSpecs()
	cycles := forkCycles(t, newTestService(t, Options{Workers: 1}), specs[0])

	svc := newTestService(t, Options{Workers: 4})
	jobs, err := svc.SubmitBatchFork(specs, &ForkPoint{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) {
		t.Fatalf("submitted %d jobs, want %d", len(jobs), len(specs))
	}
	for i, job := range jobs {
		if job.ForkCycle() != cycles {
			t.Errorf("job %d fork cycle %d, want %d", i, job.ForkCycle(), cycles)
		}
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !res.Completed {
			t.Errorf("job %d did not complete", i)
		}
	}

	m := svc.Metrics()
	if m.WarmStartMisses != 1 {
		t.Errorf("warm-start misses = %d, want 1 (one shared prefix computation)", m.WarmStartMisses)
	}
	if m.WarmStartHits != int64(len(specs)-1) {
		t.Errorf("warm-start hits = %d, want %d", m.WarmStartHits, len(specs)-1)
	}
	if want := cycles * int64(len(specs)-1); m.WarmCyclesSaved != want {
		t.Errorf("warm cycles saved = %d, want %d", m.WarmCyclesSaved, want)
	}
	if m.WarmSnapshots != 1 {
		t.Errorf("warm snapshots = %d, want 1", m.WarmSnapshots)
	}
}

// TestWarmStartBaseJobMatchesColdRun: the batch job whose spec IS the base
// resumes exactly, so it shares the cold cache key and its result is
// byte-identical to a cold run of the same spec.
func TestWarmStartBaseJobMatchesColdRun(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	base := quickSpec()
	cold, err := svc.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(cold.ExecSeconds/5e-9) / 2

	warmSvc := newTestService(t, Options{Workers: 2})
	jobs, err := warmSvc.SubmitBatchFork([]RunSpec{base}, &ForkPoint{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := jobs[0].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// cold is the wire-level RunResult, warm the raw simulator Result;
	// every shared field must match bit-for-bit (exact-resume invariant).
	if cold.ExecSeconds != warm.ExecSeconds || cold.PowerCycles != warm.PowerCycles ||
		cold.Committed != warm.Committed || cold.Executed != warm.Executed ||
		cold.Energy.Total != warm.Energy.Total() ||
		cold.Energy.Compress != warm.Energy.Compress ||
		cold.Energy.Memory != warm.Energy.Memory ||
		cold.Energy.Checkpoint != warm.Energy.Checkpoint {
		t.Errorf("warm-started base run diverged from cold run\ncold: %+v\nwarm: %+v", cold, warm)
	}
	norm, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	coldKey, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Key() != coldKey {
		t.Errorf("base job key %s, want cold key %s", jobs[0].Key(), coldKey)
	}
}

// TestWarmStartVariantKeysDistinct: a forked variant must not alias the cold
// result cache — forking is approximate, so the same spec forked vs cold are
// different cache identities. Different fork points are distinct too.
func TestWarmStartVariantKeysDistinct(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	specs := sweepSpecs()
	cycles := forkCycles(t, svc, specs[0])

	jobs, err := svc.SubmitBatchFork(specs, &ForkPoint{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := specs[1].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	coldKey, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[1].Key() == coldKey {
		t.Error("forked variant shares the cold cache key")
	}
	jobs2, err := svc.SubmitBatchFork(specs, &ForkPoint{Cycles: cycles * 2})
	if err != nil {
		t.Fatal(err)
	}
	if jobs[1].Key() == jobs2[1].Key() {
		t.Error("different fork points share a cache key")
	}
	for _, j := range append(jobs, jobs2...) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubmitBatchForkNilIsPlainBatch(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	jobs, err := svc.SubmitBatchFork([]RunSpec{quickSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ForkCycle() != 0 {
		t.Error("nil fork point must not set provenance")
	}
	if _, err := jobs[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.WarmStartHits+m.WarmStartMisses != 0 {
		t.Error("plain batch touched the warm-start cache")
	}
}

func TestSubmitBatchForkValidation(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	if _, err := svc.SubmitBatchFork([]RunSpec{quickSpec()}, &ForkPoint{Cycles: -1}); err == nil {
		t.Error("negative fork cycles accepted")
	}
	if _, err := svc.SubmitBatchFork(nil, &ForkPoint{Cycles: 100}); err == nil {
		t.Error("empty forked batch accepted")
	}
	bad := quickSpec()
	bad.App = "no-such-app"
	if _, err := svc.SubmitBatchFork([]RunSpec{quickSpec()}, &ForkPoint{Cycles: 100, Base: &bad}); err == nil {
		t.Error("invalid fork base accepted")
	}
	if _, err := svc.SubmitBatchFork([]RunSpec{quickSpec(), bad}, &ForkPoint{Cycles: 100}); err == nil {
		t.Error("invalid batch member accepted")
	}
}

func TestWarmStartCapacityEviction(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2, CacheCapacity: 2})
	spec := quickSpec()
	for i, cycles := range []int64{10_000, 20_000, 30_000} {
		jobs, err := svc.SubmitBatchFork([]RunSpec{spec}, &ForkPoint{Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jobs[0].Wait(context.Background()); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if n := svc.Metrics().WarmSnapshots; n > 2 {
		t.Errorf("warm cache holds %d snapshots, capacity 2", n)
	}
}

// TestWarmStartHTTPBatch: the wire path — forkPoint in the batch body, and
// warmStartFromCycle provenance in the per-job statuses and /metrics.
func TestWarmStartHTTPBatch(t *testing.T) {
	svc, srv := newTestServer(t)
	body, err := json.Marshal(map[string]any{
		"jobs":      sweepSpecs(),
		"forkPoint": map[string]any{"cycles": 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("batch returned %d jobs", len(out.Jobs))
	}
	for i, st := range out.Jobs {
		if st.WarmStartFromCycle != 50_000 {
			t.Errorf("job %d warmStartFromCycle = %d, want 50000", i, st.WarmStartFromCycle)
		}
	}
	// Wait for completion, then confirm provenance survives into the final
	// status and the Prometheus counters moved.
	deadline := time.Now().Add(30 * time.Second)
	for _, st := range out.Jobs {
		for {
			js, err := svc.Job(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if terminalState(js.State) {
				if js.State != StateDone {
					t.Fatalf("job %s ended %s: %s", st.ID, js.State, js.Error)
				}
				if js.Result == nil || js.Result.WarmStartFromCycle != 50_000 {
					t.Errorf("job %s result lost warm-start provenance", st.ID)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s", st.ID, js.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`kagura_warm_start_total{result="hit"} 2`,
		`kagura_warm_start_total{result="miss"} 1`,
		"kagura_warm_cycles_saved_total 100000",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// waitWarmStartPhase blocks until job's open trace span is the warm-start
// phase: its compute has begun resolving the snapshot.
func waitWarmStartPhase(t *testing.T, svc *Service, job *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.Job(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if n := len(st.Trace); n > 0 && st.Trace[n-1].Phase == obs.PhaseWarmStart {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached the warm-start phase (state %s)", job.ID(), st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCanceledWarmWaiterIsNotAHit: a fork canceled while it waits on an
// in-flight snapshot was never delivered the snapshot, so it must book
// neither a warm hit nor saved cycles.
func TestCanceledWarmWaiterIsNotAHit(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 17, Rules: []faultinject.Rule{
		{Point: "simsvc.warmstart.snapshot", Kind: faultinject.KindLatency, Every: 1, LatencyMicros: 400_000},
	}})
	svc := newTestService(t, Options{Workers: 2})
	specs := sweepSpecs()
	fork := &ForkPoint{Cycles: 20_000, Base: &specs[0]}
	owner, err := svc.SubmitBatchFork(specs[1:2], fork)
	if err != nil {
		t.Fatal(err)
	}
	for faultinject.SimsvcWarmStartSnapshot.Fires() == 0 {
		time.Sleep(time.Millisecond)
	}
	waiter, err := svc.SubmitBatchFork(specs[2:3], fork)
	if err != nil {
		t.Fatal(err)
	}
	// Whether the cancel lands before the fork looks the entry up or while
	// it waits on it, the fork finds the in-flight entry and is never
	// delivered the snapshot.
	waitWarmStartPhase(t, svc, waiter[0])
	if err := svc.Cancel(waiter[0].ID()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := waiter[0].Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter settled with %v, want context.Canceled", err)
	}
	if _, err := owner[0].Wait(ctx); err != nil {
		t.Fatalf("owner: %v", err)
	}
	m := svc.Metrics()
	if m.WarmStartHits != 0 || m.WarmCyclesSaved != 0 {
		t.Fatalf("WarmStartHits = %d, WarmCyclesSaved = %d; want 0, 0 (the snapshot was never delivered)",
			m.WarmStartHits, m.WarmCyclesSaved)
	}
	if m.WarmStartMisses != 1 {
		t.Fatalf("WarmStartMisses = %d, want 1", m.WarmStartMisses)
	}
}

// TestCacheBoundCoversBothKinds: results and warm-start snapshots share one
// bound. Under mixed fork batches and plain submits, the ready entries of
// both kinds together never exceed CacheCapacity.
func TestCacheBoundCoversBothKinds(t *testing.T) {
	const capacity = 3
	svc := newTestService(t, Options{Workers: 4, CacheCapacity: capacity})
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			if n := svc.CacheLen(); n > most {
				most = n
			}
			select {
			case <-stop:
				peak <- most
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var jobs []*Job
	for i, cycles := range []int64{10_000, 20_000, 30_000, 40_000} {
		batch, err := svc.SubmitBatchFork(sweepSpecs(), &ForkPoint{Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, batch...)
		spec := quickSpec()
		spec.Scale += 0.001 * float64(i+1)
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i, job := range jobs {
		if _, err := job.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	close(stop)
	if n := <-peak; n > capacity {
		t.Fatalf("cache held %d ready entries, capacity %d", n, capacity)
	}
	m := svc.Metrics()
	if m.CachedKeys+m.WarmSnapshots != svc.CacheLen() || svc.CacheLen() > capacity {
		t.Fatalf("cached keys %d + warm snapshots %d vs CacheLen %d, capacity %d",
			m.CachedKeys, m.WarmSnapshots, svc.CacheLen(), capacity)
	}
	if m.WarmStartMisses < 4 || m.CacheEvictions == 0 {
		t.Fatalf("warm misses %d, evictions %d: the bound was not exercised", m.WarmStartMisses, m.CacheEvictions)
	}
}

// TestInFlightSnapshotSurvivesResultChurn: an in-flight snapshot entry is not
// in the LRU list, so results churning through a one-entry cache cannot evict
// it; a fork arriving later waits on it instead of computing the prefix again.
func TestInFlightSnapshotSurvivesResultChurn(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 19, Rules: []faultinject.Rule{
		{Point: "simsvc.warmstart.snapshot", Kind: faultinject.KindLatency, Every: 1, LatencyMicros: 300_000},
	}})
	svc := newTestService(t, Options{Workers: 3, CacheCapacity: 1})
	specs := sweepSpecs()
	fork := &ForkPoint{Cycles: 20_000, Base: &specs[0]}
	first, err := svc.SubmitBatchFork(specs[1:2], fork)
	if err != nil {
		t.Fatal(err)
	}
	for faultinject.SimsvcWarmStartSnapshot.Fires() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 1; i <= 3; i++ {
		spec := quickSpec()
		spec.Scale += 0.001 * float64(i)
		if _, err := svc.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc.Metrics(); m.CacheEvictions < 2 {
		t.Fatalf("evictions = %d, want >= 2: results did not churn", m.CacheEvictions)
	}
	second, err := svc.SubmitBatchFork(specs[2:3], fork)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range append(first, second...) {
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := faultinject.SimsvcWarmStartSnapshot.Fires(); got != 1 {
		t.Fatalf("snapshot computed %d times, want 1", got)
	}
	if m := svc.Metrics(); m.WarmStartMisses != 1 || m.WarmStartHits != 1 {
		t.Fatalf("warm misses %d, hits %d; want 1, 1", m.WarmStartMisses, m.WarmStartHits)
	}
}

// TestSnapshotHitRefreshesRecency: a snapshot hit moves the snapshot to the
// front of the one LRU list, so the older results are evicted before it.
func TestSnapshotHitRefreshesRecency(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1, CacheCapacity: 3})
	specs := sweepSpecs()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runFork := func(spec RunSpec) *Job {
		t.Helper()
		jobs, err := svc.SubmitBatchFork([]RunSpec{spec}, &ForkPoint{Cycles: 20_000, Base: &specs[0]})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jobs[0].Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return jobs[0]
	}
	// LRU, front to back: plain result, base result, snapshot.
	base := runFork(specs[0])
	plain := quickSpec()
	plain.Scale += 0.001
	if _, err := svc.Run(ctx, plain); err != nil {
		t.Fatal(err)
	}
	// The variant's snapshot hit refreshes the snapshot; publishing its
	// result must then evict the base result, the least recently used.
	runFork(specs[1])
	m := svc.Metrics()
	if m.WarmStartHits != 1 || m.CacheEvictions != 1 {
		t.Fatalf("warm hits %d, evictions %d; want 1, 1", m.WarmStartHits, m.CacheEvictions)
	}
	if m.WarmSnapshots != 1 {
		t.Fatal("the refreshed snapshot was evicted")
	}
	svc.mu.Lock()
	_, baseCached := svc.cache[resultKey(base.Key())]
	svc.mu.Unlock()
	if baseCached {
		t.Fatal("the least recently used result survived eviction")
	}
}
