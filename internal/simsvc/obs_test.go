package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/obs"
)

// instantCompute returns a compute function that resolves immediately — the
// cheapest possible job, for cache-pressure soaks.
func instantCompute(res *ehs.Result) func(context.Context) (*ehs.Result, error) {
	return func(context.Context) (*ehs.Result, error) { return res, nil }
}

// TestCacheBoundUnderRacingSubmissions hammers a small cache from many
// goroutines with distinct keys and asserts the bound is never observably
// exceeded — eviction happens under the same lock as publication, so no
// snapshot may ever see more than CacheCapacity ready entries.
func TestCacheBoundUnderRacingSubmissions(t *testing.T) {
	const capacity = 16
	svc := newTestService(t, Options{Workers: 8, QueueDepth: 4096, CacheCapacity: capacity})
	errs := make(chan error, 8*64+1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				key := fmt.Sprintf("bound-%d-%d", g, i)
				if _, _, err := svc.Do(context.Background(), key, instantCompute(&ehs.Result{Completed: true})); err != nil {
					errs <- fmt.Errorf("key %s: %w", key, err)
					return
				}
				if n := svc.CacheLen(); n > capacity {
					errs <- fmt.Errorf("cache grew to %d entries, capacity %d", n, capacity)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if m.CachedKeys > capacity {
		t.Fatalf("CachedKeys = %d, capacity %d", m.CachedKeys, capacity)
	}
	if m.CacheEvictions == 0 {
		t.Error("512 distinct keys through a 16-entry cache recorded no evictions")
	}
	if m.CacheBytes < 0 {
		t.Errorf("CacheBytes went negative: %d", m.CacheBytes)
	}
}

// TestInFlightEntriesPinnedAgainstEviction checks the pinning invariant: an
// in-flight owner (with a coalesced waiter riding on it) must survive any
// amount of eviction pressure, because only ready entries are eviction
// candidates.
func TestInFlightEntriesPinnedAgainstEviction(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4, QueueDepth: 1024, CacheCapacity: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	blocked := func(ctx context.Context) (*ehs.Result, error) {
		close(started)
		select {
		case <-release:
			return &ehs.Result{Completed: true, Committed: 7}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	owner, err := svc.submit(nil, "pinned", blocked, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waiter, err := svc.submit(nil, "pinned", nil, 0, 0, nil) // coalesces onto owner
	if err != nil {
		t.Fatal(err)
	}

	// Evict everything evictable, several times over.
	for i := 0; i < 5; i++ {
		if _, _, err := svc.Do(context.Background(), fmt.Sprintf("pressure-%d", i), instantCompute(&ehs.Result{Completed: true})); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc.Metrics(); m.CacheEvictions < 4 {
		t.Fatalf("eviction pressure did not materialize: %d evictions", m.CacheEvictions)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := owner.Wait(ctx)
	if err != nil || res == nil || res.Committed != 7 {
		t.Fatalf("pinned owner lost its computation: res=%v err=%v", res, err)
	}
	wres, err := waiter.Wait(ctx)
	if err != nil || wres == nil || wres.Committed != 7 {
		t.Fatalf("coalesced waiter lost the pinned result: res=%v err=%v", wres, err)
	}
	if n := svc.CacheLen(); n > 1 {
		t.Fatalf("cache holds %d entries after publish, capacity 1", n)
	}
}

// TestEvictedResultRecomputesIdentical: evicting a result must be invisible
// except for the recompute — the simulator is deterministic, so the second
// computation is byte-identical to the first.
func TestEvictedResultRecomputesIdentical(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2, CacheCapacity: 1})
	ctx := context.Background()
	first, err := svc.Run(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	other := quickSpec()
	other.Kagura = false
	if _, err := svc.Run(ctx, other); err != nil { // evicts the first result
		t.Fatal(err)
	}
	second, err := svc.Run(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("evicted spec was served from cache")
	}
	fb, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, sb) {
		t.Fatalf("recomputed result diverged from the evicted one:\n%s\nvs\n%s", fb, sb)
	}
	if m := svc.Metrics(); m.CacheEvictions == 0 {
		t.Fatal("no eviction was recorded")
	}
}

// TestCacheSoak10kSpecsStaysBounded is the leak regression: 10k distinct
// specs through a bounded cache must hold resident entries at or under
// CacheCapacity throughout — before this bound existed, this soak retained
// all 10k results.
func TestCacheSoak10kSpecsStaysBounded(t *testing.T) {
	const capacity = 128
	svc := newTestService(t, Options{Workers: 8, QueueDepth: 8192, CacheCapacity: capacity})
	ctx := context.Background()
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("soak-%05d", i)
		if _, _, err := svc.Do(ctx, key, instantCompute(&ehs.Result{Completed: true})); err != nil {
			t.Fatal(err)
		}
		if i%997 == 0 {
			if n := svc.CacheLen(); n > capacity {
				t.Fatalf("after %d specs the cache holds %d entries, capacity %d", i+1, n, capacity)
			}
		}
	}
	if n := svc.CacheLen(); n > capacity {
		t.Fatalf("cache holds %d entries after the soak, capacity %d", n, capacity)
	}
	m := svc.Metrics()
	if want := int64(10_000 - capacity); m.CacheEvictions < want {
		t.Fatalf("CacheEvictions = %d, want ≥ %d", m.CacheEvictions, want)
	}
	if m.CacheBytes <= 0 {
		t.Fatalf("CacheBytes = %d after a soak that left %d resident results", m.CacheBytes, m.CachedKeys)
	}
}

// TestJobTraceSpanSumMatchesWallTime drives a job through the HTTP API and
// checks the acceptance bound: the phase spans on GET /v1/jobs/{id} sum to
// within 5% of the job's reported wall time (they are contiguous by
// construction, so this holds with margin to spare).
func TestJobTraceSpanSumMatchesWallTime(t *testing.T) {
	_, srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/v1/run?async=1", quickSpec())
	st := decodeBody[JobStatus](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		get, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = decodeBody[JobStatus](t, get)
	}

	if len(st.Trace) < 2 {
		t.Fatalf("expected queued+compute spans, got %+v", st.Trace)
	}
	if st.Trace[0].Phase != obs.PhaseQueued {
		t.Fatalf("first span is %q, want %q", st.Trace[0].Phase, obs.PhaseQueued)
	}
	var sum float64
	sawCompute := false
	for _, s := range st.Trace {
		sum += s.Seconds
		sawCompute = sawCompute || s.Phase == obs.PhaseCompute
	}
	if !sawCompute {
		t.Fatalf("no compute span in %+v", st.Trace)
	}
	wall := st.QueueSeconds + st.RunSeconds
	if wall <= 0 {
		t.Fatalf("job reports no wall time (queue=%g run=%g)", st.QueueSeconds, st.RunSeconds)
	}
	if diff := math.Abs(sum - wall); diff > 0.05*wall {
		t.Fatalf("trace spans sum to %.6fs, wall time %.6fs — more than 5%% apart: %+v", sum, wall, st.Trace)
	}
}

// TestFailedJobTraceIsOneCompute pins the trace of a failed job: it settles
// at once, so its timeline is one queued span then one compute span, and
// its compute ran exactly once.
func TestFailedJobTraceIsOneCompute(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	var calls atomic.Int64
	failing := func(ctx context.Context) (*ehs.Result, error) {
		calls.Add(1)
		return nil, &faultinject.InjectedError{Point: "test", Occurrence: 1}
	}
	job, err := svc.submit(nil, "trace-fail", failing, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); Classify(err) != CodeFaultInjected {
		t.Fatalf("job settled with %v, want a fault_injected failure", err)
	}
	st, err := svc.Job(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range st.Trace {
		got = append(got, s.Phase)
	}
	want := []string{obs.PhaseQueued, obs.PhaseCompute}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("phase sequence = %v, want %v", got, want)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

// TestCachedJobTraceIsSingleInstantSpan: a cache hit's whole life is one
// zero-length cached span.
func TestCachedJobTraceIsSingleInstantSpan(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	ctx := context.Background()
	if _, err := svc.Run(ctx, quickSpec()); err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Job(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) != 1 || st.Trace[0].Phase != obs.PhaseCached || st.Trace[0].Seconds != 0 {
		t.Fatalf("cache-hit trace = %+v, want one zero-length cached span", st.Trace)
	}
}

// TestWarmStartTracePhase: a forked job's compute attempt splits into a
// warm-start span (snapshot resolution) and the simulation proper.
func TestWarmStartTracePhase(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	jobs, err := svc.SubmitBatchFork(sweepSpecs(), &ForkPoint{Cycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, job := range jobs {
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st, err := svc.Job(jobs[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, s := range st.Trace {
		phases = append(phases, s.Phase)
	}
	sawWarm := false
	for i, p := range phases {
		if p == obs.PhaseWarmStart {
			sawWarm = true
			if i+1 >= len(phases) || phases[i+1] != obs.PhaseCompute {
				t.Fatalf("warm-start span not followed by compute: %v", phases)
			}
		}
	}
	if !sawWarm {
		t.Fatalf("no warm-start span in forked job trace: %v", phases)
	}
	if m := svc.Metrics(); m.SnapshotBytes.Count == 0 {
		t.Fatal("warm miss did not observe a snapshot size")
	}
}

// TestResponseWriteFaultDoesNotWedgeService arms the connection-level fault:
// a response write that dies mid-body must abort only that request — the jobs
// table stays intact, later requests succeed, and shutdown still drains.
func TestResponseWriteFaultDoesNotWedgeService(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "simsvc.http.response", Kind: faultinject.KindError, Nth: 1, Message: "chaos: connection died"},
	}})
	svc, srv := newTestServer(t)

	blob, err := json.Marshal(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/run?async=1", "application/json", bytes.NewReader(blob))
	if err == nil {
		// The server aborted mid-body; draining must fail or come up short.
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if json.Valid(body) {
			t.Fatalf("aborted response delivered a complete body: %q", body)
		}
	}
	if faultinject.SimsvcHTTPResponse.Fires() != 1 {
		t.Fatal("response fault did not fire")
	}

	// The submission itself happened before the write: exactly one job, and
	// the server still answers.
	get, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("server wedged after mid-response abort: %v", err)
	}
	list := decodeBody[struct {
		Jobs []JobStatus `json:"jobs"`
	}](t, get)
	if len(list.Jobs) != 1 {
		t.Fatalf("jobs table corrupted: %d jobs, want 1", len(list.Jobs))
	}

	// The job completes and is queryable by ID.
	id := list.Jobs[0].ID
	deadline := time.Now().Add(60 * time.Second)
	for {
		get, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[JobStatus](t, get)
		if st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s after response fault", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Graceful shutdown is unaffected.
	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Close wedged after mid-response abort")
	}
}

// TestPrometheusExpositionValidates holds the full live exposition — counters,
// gauges, and the new histogram families — to the format contract the chaos
// soak enforces mid-flight.
func TestPrometheusExpositionValidates(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2, CacheCapacity: 2})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, _, err := svc.Do(ctx, fmt.Sprintf("expo-%d", i), instantCompute(&ehs.Result{Completed: true})); err != nil {
			t.Fatal(err)
		}
	}
	text := svc.Metrics().Prometheus()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("live exposition malformed: %v\n%s", err, text)
	}
}

// TestTracingOverheadSmoke bounds the instrumentation tax: a full per-job
// trace lifecycle (allocation, the span transitions of a computed job, one
// snapshot) must cost under 2% of even the quickest real job's wall time with
// logging off. Measured per-operation over many iterations so scheduler noise
// averages out; the real margin is ~three orders of magnitude.
func TestTracingOverheadSmoke(t *testing.T) {
	const iters = 20_000
	origin := time.Now()
	start := time.Now()
	for i := 0; i < iters; i++ {
		tr := obs.NewTrace(origin)
		tr.Begin(obs.PhaseQueued, origin)
		tr.Begin(obs.PhaseCompute, origin)
		tr.End(origin)
		if len(tr.Spans(origin)) != 2 {
			t.Fatal("unexpected span count")
		}
	}
	perJob := time.Since(start) / iters

	svc := newTestService(t, Options{Workers: 1})
	t0 := time.Now()
	if _, err := svc.Run(context.Background(), quickSpec()); err != nil {
		t.Fatal(err)
	}
	jobWall := time.Since(t0)

	if ratio := float64(perJob) / float64(jobWall); ratio > 0.02 {
		t.Fatalf("tracing lifecycle costs %v per job — %.3f%% of a quick job's %v; budget is 2%%",
			perJob, 100*ratio, jobWall)
	}
}
