package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/store"
)

// armChaos enables a fault plan for one test, disarming on cleanup.
func armChaos(t *testing.T, p faultinject.Plan) {
	t.Helper()
	if err := faultinject.Enable(p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

// TestInjectedFaultSettlesAtOnce: a compute error settles its job at once,
// classified, with the compute run exactly once.
func TestInjectedFaultSettlesAtOnce(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	var calls atomic.Int64
	faulty := func(ctx context.Context) (*ehs.Result, error) {
		calls.Add(1)
		return nil, &faultinject.InjectedError{Point: "test", Occurrence: calls.Load()}
	}
	_, _, err := svc.Do(context.Background(), "transient", faulty)
	if code := Classify(err); code != CodeFaultInjected {
		t.Fatalf("job settled with %v (%s), want %s", err, code, CodeFaultInjected)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if m := svc.Metrics(); m.JobsFailed != 1 || m.Errors["fault_injected"] != 1 {
		t.Fatalf("JobsFailed = %d, Errors[fault_injected] = %d, want 1 and 1", m.JobsFailed, m.Errors["fault_injected"])
	}
}

// TestPanicSettlesAtOnce: a panicking compute is recovered, counted and
// classified, and its job settles after one compute. The failure is not
// cached, so the next submission of the key computes again on the same
// worker, which the panic did not kill.
func TestPanicSettlesAtOnce(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	var calls atomic.Int64
	panicky := func(ctx context.Context) (*ehs.Result, error) {
		if calls.Add(1) == 1 {
			panic("forever broken")
		}
		return &ehs.Result{Completed: true}, nil
	}
	_, _, err := svc.Do(context.Background(), "panicky", panicky)
	if err == nil {
		t.Fatal("a panicking compute settled successfully")
	}
	if !strings.Contains(err.Error(), "simsvc: job panicked: forever broken") {
		t.Fatalf("panic error text changed: %v", err)
	}
	if code := Classify(err); code != CodePanic {
		t.Fatalf("Classify = %s, want %s", code, CodePanic)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times before the job settled, want 1", got)
	}
	m := svc.Metrics()
	if m.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", m.PanicsRecovered)
	}
	if m.Errors["panic"] != 1 {
		t.Fatalf("Errors[panic] = %d, want 1", m.Errors["panic"])
	}

	res, cached, err := svc.Do(context.Background(), "panicky", panicky)
	if err != nil || !res.Completed || cached {
		t.Fatalf("resubmission = (%+v, cached %v, %v), want a fresh successful compute", res, cached, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times over two submissions, want 2", got)
	}
}

// TestPlainErrorsNotRetried: a deterministic failure runs exactly once (the
// simulator is a pure function).
func TestPlainErrorsNotRetried(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	var attempts atomic.Int64
	deterministic := func(ctx context.Context) (*ehs.Result, error) {
		attempts.Add(1)
		return nil, errors.New("bad geometry")
	}
	if _, _, err := svc.Do(context.Background(), "det-fail", deterministic); err == nil {
		t.Fatal("expected failure")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("deterministic failure ran %d times, want 1", got)
	}
}

func TestLoadSheddingBreaker(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1, QueueDepth: 10})
	release := occupyWorker(t, svc) // hog also unblocks on ctx.Done at svc.Close

	gate := make(chan struct{})
	blocker := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-gate:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Fill the queue to the high-water mark (shedHighWater × QueueDepth = 9
	// of 10); the next submission must be shed.
	var jobs []*Job
	for i := 0; i < 9; i++ {
		job, err := svc.submit(nil, "shed-"+string(rune('a'+i)), blocker, 0, 0, nil)
		if err != nil {
			t.Fatalf("submit %d below high water failed: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	_, err := svc.submit(nil, "shed-overflow", blocker, 0, 0, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submit: %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("ErrOverloaded must wrap ErrQueueFull for legacy backpressure handling")
	}
	if ready, reason := svc.Ready(); ready {
		t.Fatal("shedding service reported ready")
	} else if reason != "shedding load" {
		t.Fatalf("readiness reason = %q", reason)
	}
	m := svc.Metrics()
	if m.JobsShed < 1 {
		t.Fatalf("JobsShed = %d, want >= 1", m.JobsShed)
	}
	if !m.Shedding {
		t.Fatal("metrics snapshot does not show the breaker open")
	}
	if m.Errors["overloaded"] < 1 {
		t.Fatalf("Errors[overloaded] = %d, want >= 1", m.Errors["overloaded"])
	}
	if svc.RetryAfterSeconds() < 1 {
		t.Fatal("RetryAfterSeconds must be at least 1")
	}

	// Drain: the breaker must close once occupancy falls below low water.
	close(gate)
	close(release)
	for _, j := range jobs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := j.Wait(ctx); err != nil {
			cancel()
			t.Fatalf("queued job failed after drain: %v", err)
		}
		cancel()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ready, _ := svc.Ready(); ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the queue drained")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorCode
	}{
		{ErrOverloaded, CodeOverloaded},
		{ErrQueueFull, CodeQueueFull},
		{ErrClosed, CodeServiceClosed},
		{ErrUnknownJob, CodeUnknownJob},
		{context.DeadlineExceeded, CodeTimeout},
		{context.Canceled, CodeCanceled},
		{&Error{Code: CodePanic, Err: errors.New("simsvc: job panicked: x")}, CodePanic},
		{fmt.Errorf("simsvc: batch[%d]: %w", 3, &Error{Code: CodeInvalidSpec, Err: errors.New("bad")}), CodeInvalidSpec},
		{fmt.Errorf("%w: %q", ErrUnknownJob, "job-1"), CodeUnknownJob},
		{&faultinject.InjectedError{Point: "p"}, CodeFaultInjected},
		{errors.New("anything else"), CodeInternal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
	if Classify(nil) != "" {
		t.Error("Classify(nil) must be empty")
	}
}

// TestCorruptWarmSnapshotDegradesToCold is the acceptance criterion: a
// corrupt checkpoint in the warm-start cache must not fail the forked job —
// the service degrades to a cold run, the result matches a cold run exactly,
// and kagura_degraded_runs increments.
func TestCorruptWarmSnapshotDegradesToCold(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	base := quickSpec()
	norm, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	baseCfg, err := norm.Config()
	if err != nil {
		t.Fatal(err)
	}
	// The expected result, and a guaranteed mid-run fork cycle derived from it.
	cold, err := ehs.RunContext(context.Background(), baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(cold.ExecSeconds/5e-9) / 2
	if cycles < 1 {
		t.Fatal("base run too short to fork")
	}

	// Craft a structurally corrupt snapshot: run the base to the fork cycle,
	// snapshot, then wreck the I-cache geometry so RestoreSnapshot rejects it
	// (the same failure mode as a corrupted decoded checkpoint).
	sim, err := ehs.New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToCycle(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.ICache.Sets) < 2 {
		t.Fatalf("test needs >= 2 icache sets, have %d", len(snap.ICache.Sets))
	}
	snap.ICache.Sets = snap.ICache.Sets[:1]

	// Plant it in the memory cache as a ready snapshot entry.
	k := cacheKey{kind: store.KindCheckpoint, key: warmStoreKey(baseKey, cycles)}
	svc.mu.Lock()
	svc.cache[k] = &entry{snap: snap}
	svc.publishLocked(k, svc.cache[k], 0, nil)
	svc.mu.Unlock()

	jobs, err := svc.SubmitBatchFork([]RunSpec{base}, &ForkPoint{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := jobs[0].Wait(ctx)
	if err != nil {
		t.Fatalf("job failed instead of degrading: %v", err)
	}
	if !res.Completed {
		t.Fatal("degraded run did not complete")
	}
	if m := svc.Metrics(); m.DegradedRuns != 1 {
		t.Fatalf("DegradedRuns = %d, want 1", m.DegradedRuns)
	}
	// The degraded result must be exactly the cold run of the same config.
	if !reflect.DeepEqual(res, cold) {
		t.Fatal("degraded run diverged from a cold run of the same config")
	}
}

// TestWarmOwnerFailureRetry covers the owner-failure path with an injected
// fault instead of sleeps: the first snapshot computation fails, its job
// degrades to a cold run, and the snapshot is recomputed (by the fork that
// was waiting on it and takes over, or by a fresh one) so the other job
// still warm-starts. Runs under -race in CI.
func TestWarmOwnerFailureRetry(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Point: "simsvc.warmstart.snapshot", Kind: faultinject.KindError, Nth: 1, Message: "owner failure"},
	}})
	specs := sweepSpecs()[:2]
	svc := newTestService(t, Options{Workers: 2})
	jobs, err := svc.SubmitBatchFork(specs, &ForkPoint{Cycles: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, job := range jobs {
		res, err := job.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		if !res.Completed {
			t.Fatalf("job %d did not complete", i)
		}
	}
	if got := faultinject.SimsvcWarmStartSnapshot.Fires(); got != 1 {
		t.Fatalf("snapshot point fired %d times, want 1", got)
	}
	m := svc.Metrics()
	if m.DegradedRuns != 1 {
		t.Fatalf("DegradedRuns = %d, want 1 (the failed owner degrades)", m.DegradedRuns)
	}
	if m.WarmStartMisses != 2 {
		t.Fatalf("WarmStartMisses = %d, want 2 (failed owner + recomputation)", m.WarmStartMisses)
	}
}

// TestWarmEvictionRacesFork exercises LRU eviction racing in-flight forks:
// injected snapshot latency holds owners in flight while an injected evict
// fault prunes the cache early. Jobs whose snapshot or result was evicted
// after it was handed to them must still resolve. Runs under -race in CI.
func TestWarmEvictionRacesFork(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 13, Rules: []faultinject.Rule{
		{Point: "simsvc.warmstart.snapshot", Kind: faultinject.KindLatency, Every: 1, LatencyMicros: 30_000},
		{Point: "simsvc.warm.evict", Kind: faultinject.KindError, Every: 1},
	}})
	svc := newTestService(t, Options{Workers: 4, CacheCapacity: 2})
	specs := sweepSpecs()
	var jobs []*Job
	for _, cycles := range []int64{10_000, 20_000, 30_000} {
		batch, err := svc.SubmitBatchFork(specs, &ForkPoint{Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, batch...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i, job := range jobs {
		res, err := job.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		if !res.Completed {
			t.Fatalf("job %d did not complete", i)
		}
	}
	if n := svc.Metrics().WarmSnapshots; n > 2 {
		t.Fatalf("warm cache holds %d snapshots, capacity 2", n)
	}
	if faultinject.SimsvcWarmEvict.Fires() == 0 {
		t.Fatal("eviction chaos never fired; the race was not exercised")
	}
}

// TestHTTPErrorCodes pins the status, `error` text and `code` of every /v1
// error response: at least one row per code in errorCodes (the test fails if
// a code has none), plus the batch and forkPoint wraps, which must keep the
// wrapped error's code.
func TestHTTPErrorCodes(t *testing.T) {
	const (
		runBody  = `{"app":"jpeg","scale":0.004}`
		badApp   = `{"app":"no-such-workload","scale":0.01}`
		badError = `simsvc: workload: unknown application "no-such-workload"`
	)
	rows := []struct {
		name    string
		opts    Options
		code    ErrorCode
		status  int
		wantErr string
		do      func(t *testing.T, svc *Service, url string) *http.Response
	}{
		{"malformed json", Options{}, CodeBadRequest, 400, "invalid character 'n' looking for beginning of object key string",
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/run", "{nope")
			}},
		{"empty batch", Options{}, CodeBadRequest, 400, "simsvc: batch needs a non-empty jobs array",
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/batch", `{"jobs":[]}`)
			}},
		{"job status", Options{}, CodeUnknownJob, 404, `simsvc: unknown job: "job-missing"`,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return send(t, "GET", url+"/v1/jobs/job-missing")
			}},
		{"job trace", Options{}, CodeUnknownJob, 404, `simsvc: unknown job: "job-missing"`,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return send(t, "GET", url+"/v1/jobs/job-missing?format=otlp")
			}},
		{"job cancel", Options{}, CodeUnknownJob, 404, `simsvc: unknown job: "job-missing"`,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return send(t, "DELETE", url+"/v1/jobs/job-missing")
			}},
		{"run spec", Options{}, CodeInvalidSpec, 400, badError,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/run", badApp)
			}},
		{"batch spec", Options{}, CodeInvalidSpec, 400, "simsvc: batch[1]: " + badError,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/batch", `{"jobs":[`+runBody+`,`+badApp+`]}`)
			}},
		{"forked batch spec", Options{}, CodeInvalidSpec, 400, "simsvc: batch[1]: " + badError,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/batch", `{"jobs":[`+runBody+`,`+badApp+`],"forkPoint":{"cycles":1000}}`)
			}},
		{"forkPoint base", Options{}, CodeInvalidSpec, 400, "simsvc: forkPoint base: " + badError,
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/batch", `{"jobs":[`+runBody+`],"forkPoint":{"cycles":1000,"base":`+badApp+`}}`)
			}},
		{"closed", Options{}, CodeServiceClosed, 503, "simsvc: service closed",
			func(t *testing.T, svc *Service, url string) *http.Response {
				svc.Close()
				return post(t, url+"/v1/run", runBody)
			}},
		{"shed", Options{Workers: 1, QueueDepth: 1}, CodeOverloaded, 503, "simsvc: overloaded, load shed: simsvc: queue full",
			func(t *testing.T, svc *Service, url string) *http.Response {
				occupyWorker(t, svc)
				// One queued entry reaches the high-water mark of a 1-deep queue.
				if _, err := svc.submit(nil, "queued", waitForCancel, 0, 0, nil); err != nil {
					t.Fatal(err)
				}
				return post(t, url+"/v1/run?async=1", runBody)
			}},
		// The breaker opens at max(1, int(shedHighWater × QueueDepth)) < QueueDepth
		// queued entries, so a submission sees ErrOverloaded before the queue
		// can fill; this row renders ErrQueueFull through the submission error
		// path instead.
		{"queue full", Options{}, CodeQueueFull, 503, "simsvc: queue full",
			func(t *testing.T, svc *Service, url string) *http.Response {
				rec := httptest.NewRecorder()
				writeServiceError(rec, svc, ErrQueueFull)
				return rec.Result()
			}},
		{"timeout", Options{}, CodeTimeout, 400, "ehs: run jpeg aborted: context deadline exceeded",
			func(t *testing.T, svc *Service, url string) *http.Response {
				return post(t, url+"/v1/run", `{"app":"jpeg","scale":1,"timeoutSeconds":0.001}`)
			}},
		{"canceled", Options{}, CodeCanceled, 400, "context canceled",
			func(t *testing.T, svc *Service, url string) *http.Response {
				return runAttached(t, svc, url, waitForCancel, func(job JobStatus) {
					if resp := send(t, "DELETE", url+"/v1/jobs/"+job.ID); resp.StatusCode != http.StatusOK {
						t.Fatalf("cancel = %d", resp.StatusCode)
					}
				})
			}},
		{"panic", Options{}, CodePanic, 400, "simsvc: job panicked: faultinject: injected panic at simsvc.compute (occurrence 1) ",
			func(t *testing.T, svc *Service, url string) *http.Response {
				armChaos(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
					{Point: "simsvc.compute", Kind: faultinject.KindPanic, Every: 1},
				}})
				return post(t, url+"/v1/run", runBody)
			}},
		{"injected fault", Options{}, CodeFaultInjected, 400, "faultinject: simsvc.http.body (occurrence 1): body chewed",
			func(t *testing.T, svc *Service, url string) *http.Response {
				armChaos(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
					{Point: "simsvc.http.body", Kind: faultinject.KindError, Every: 1, Message: "body chewed"},
				}})
				return post(t, url+"/v1/run", runBody)
			}},
		{"unclassified compute error", Options{}, CodeInternal, 400, "simsvc test: compute failed",
			func(t *testing.T, svc *Service, url string) *http.Response {
				release := make(chan struct{})
				failing := func(ctx context.Context) (*ehs.Result, error) {
					<-release
					return nil, errors.New("simsvc test: compute failed")
				}
				return runAttached(t, svc, url, failing, func(JobStatus) { close(release) })
			}},
	}
	covered := make(map[ErrorCode]bool)
	for _, row := range rows {
		covered[row.code] = true
		t.Run(row.name, func(t *testing.T) {
			opts := row.opts
			if opts.Workers == 0 {
				opts.Workers = 2
			}
			svc := New(opts)
			srv := httptest.NewServer(NewHandler(svc))
			// Closing the service first ends any computation a failed row
			// left a request waiting on, so the server can drain.
			t.Cleanup(func() {
				svc.Close()
				srv.Close()
			})
			resp := row.do(t, svc, srv.URL)
			body := decodeBody[struct{ Error, Code string }](t, resp)
			if resp.StatusCode != row.status || body.Code != string(row.code) || body.Error != row.wantErr {
				t.Fatalf("got %d %s %q, want %d %s %q", resp.StatusCode, body.Code, body.Error, row.status, row.code, row.wantErr)
			}
		})
	}
	for _, code := range errorCodes {
		if !covered[code] {
			t.Errorf("no row renders code %s", code)
		}
	}
}

// post sends body to url as JSON.
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// send issues a bodiless request.
func send(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitForCancel is a compute that returns only when its context ends.
func waitForCancel(ctx context.Context) (*ehs.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// runAttached starts compute under the key of a quick spec, POSTs that spec
// to /v1/run so the request's job attaches to the running computation, calls
// then with the request's job, and returns the /v1/run response.
func runAttached(t *testing.T, svc *Service, url string, compute func(context.Context) (*ehs.Result, error), then func(JobStatus)) *http.Response {
	t.Helper()
	spec := quickSpec()
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.submit(nil, key, compute, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(string(blob)))
		if err != nil {
			t.Error(err)
		}
		respc <- resp
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, job := range svc.Jobs() {
			if job.Spec != nil {
				then(job)
				resp := <-respc
				if resp == nil {
					t.FailNow()
				}
				return resp
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the /v1/run job never attached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPInjectedBodyFault arms the request-body chaos point and checks the
// fault surfaces as a machine-readable fault_injected error.
func TestHTTPInjectedBodyFault(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Point: "simsvc.http.body", Kind: faultinject.KindError, Every: 1, Message: "connection chewed by chaos"},
	}})
	_, srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/run", "application/json",
		strings.NewReader(`{"app":"jpeg","scale":0.004}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("injected body fault = %d, want 400", resp.StatusCode)
	}
	var body struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != string(CodeFaultInjected) {
		t.Fatalf("code = %q, want %q", body.Code, CodeFaultInjected)
	}
	if !strings.Contains(body.Error, "connection chewed by chaos") {
		t.Fatalf("error text lost the injection message: %q", body.Error)
	}
}

// TestHTTPShedRetryAfter drives the service into load shedding and checks
// that the 503 carries a Retry-After header and overloaded code, and that
// /readyz mirrors the breaker.
func TestHTTPShedRetryAfter(t *testing.T) {
	svc := New(Options{Workers: 1, QueueDepth: 4})
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	release := occupyWorker(t, svc)
	defer close(release)
	gate := make(chan struct{})
	defer close(gate)
	blocker := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-gate:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// High water is max(1, int(4 × shedHighWater)) = 3 queued jobs; fill to
	// it.
	for i := 0; i < 3; i++ {
		if _, err := svc.submit(nil, "http-shed-"+string(rune('a'+i)), blocker, 0, 0, nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/run?async=1", "application/json",
		strings.NewReader(`{"app":"jpeg","scale":0.004}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 is missing the Retry-After header")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	var body struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Code != string(CodeOverloaded) {
		t.Fatalf("shed code = %q, want %q", body.Code, CodeOverloaded)
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while shedding = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 is missing Retry-After")
	}
}

// TestMetricsExposeResilienceSeries checks the new exposition lines exist and
// that every taxonomy code renders even at zero.
func TestMetricsExposeResilienceSeries(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	text := svc.Metrics().Prometheus()
	for _, want := range []string{
		"kagura_panics_recovered_total 0\n",
		"kagura_jobs_shed_total 0\n",
		"kagura_degraded_runs 0\n",
		"kagura_shedding 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	for _, code := range errorCodes {
		want := fmt.Sprintf("kagura_errors_total{code=%q} 0\n", string(code))
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestInjectedComputePanicIsRecovered is the regression for the chaos drill
// that killed a live server: a KindPanic injection at simsvc.compute fires
// outside the user compute function, and must still be caught by the
// worker's recover shield — an injected panic is a simulated compute crash,
// not a worker kill. The job settles at once as a panic; the injection
// fires before the user compute, so that never runs.
func TestInjectedComputePanicIsRecovered(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 21, Rules: []faultinject.Rule{
		{Point: "simsvc.compute", Kind: faultinject.KindPanic, Nth: 1, Message: "drill crash"},
	}})
	svc := newTestService(t, Options{Workers: 1})
	var calls atomic.Int64
	compute := func(ctx context.Context) (*ehs.Result, error) {
		calls.Add(1)
		return &ehs.Result{Completed: true}, nil
	}
	_, _, err := svc.Do(context.Background(), "inj-panic", compute)
	if code := Classify(err); code != CodePanic {
		t.Fatalf("Classify(%v) = %s, want %s", err, code, CodePanic)
	}
	if got := faultinject.SimsvcCompute.Fires(); got != 1 {
		t.Fatalf("simsvc.compute fired %d times, want 1", got)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("user compute ran %d times behind a panicking injection, want 0", got)
	}
	if m := svc.Metrics(); m.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", m.PanicsRecovered)
	}
	// The worker survived: the same key computes on the next submission.
	if _, _, err := svc.Do(context.Background(), "inj-panic", compute); err != nil {
		t.Fatalf("worker did not survive the injected panic: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("user compute ran %d times, want 1", got)
	}
}
