package simsvc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kagura/internal/ehs"
)

// quickSpec is a small, fast run (~2k instructions).
func quickSpec() RunSpec {
	return RunSpec{App: "jpeg", Scale: 0.004, Codec: "BDI", ACC: true, Kagura: true}
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	svc := New(opts)
	t.Cleanup(svc.Close)
	return svc
}

func TestKeyCanonicalization(t *testing.T) {
	base := quickSpec()
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Spelling variants of the same configuration hash identically.
	variant := base
	variant.Trace = "rfhome"
	variant.Seed = 1 // explicit default
	variant.Codec = "bdi"
	variant.Design = "nvsramcache"
	variant.Policy = "aimd"
	variant.Trigger = "memory"
	k2, err := variant.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("canonical variants hash differently:\n%s\n%s", k1, k2)
	}

	// Execution-control fields don't change identity.
	timed := base
	timed.TimeoutSeconds = 30
	if k3, _ := timed.Key(); k3 != k1 {
		t.Fatal("TimeoutSeconds changed the cache key")
	}

	// Any behavioral difference does.
	for name, mutate := range map[string]func(*RunSpec){
		"app":    func(s *RunSpec) { s.App = "gsm" },
		"seed":   func(s *RunSpec) { s.Seed = 2 },
		"scale":  func(s *RunSpec) { s.Scale = 0.008 },
		"codec":  func(s *RunSpec) { s.Codec = "FPC" },
		"acc":    func(s *RunSpec) { s.ACC = false },
		"kagura": func(s *RunSpec) { s.Kagura = false; s.Policy = ""; s.Trigger = "" },
		"design": func(s *RunSpec) { s.Design = "NvMR" },
		"trace":  func(s *RunSpec) { s.Trace = "Solar" },
		"decay":  func(s *RunSpec) { s.DecayInterval = 600 },
		"log":    func(s *RunSpec) { s.CycleLog = true },
	} {
		m := base
		mutate(&m)
		k, err := m.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]RunSpec{
		"empty":            {},
		"both app+inline":  {App: "jpeg", Workload: []byte(`{}`)},
		"unknown app":      {App: "nope"},
		"unknown trace":    {App: "jpeg", Trace: "wind"},
		"unknown codec":    {App: "jpeg", Codec: "LZ77"},
		"acc sans codec":   {App: "jpeg", ACC: true},
		"unknown design":   {App: "jpeg", Design: "RAMCloud"},
		"unknown policy":   {App: "jpeg", Kagura: true, Policy: "PID"},
		"unknown trigger":  {App: "jpeg", Kagura: true, Trigger: "thermal"},
		"policy no kagura": {App: "jpeg", Policy: "AIMD"},
		"negative scale":   {App: "jpeg", Scale: -1},
		"negative decay":   {App: "jpeg", DecayInterval: -5},
		"bad workload":     {Workload: []byte(`{"name":`)},
	}
	for name, spec := range cases {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestConfigKeyMatchesAcrossConstructions(t *testing.T) {
	cfgA, err := quickSpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := quickSpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	if ConfigKey(cfgA) != ConfigKey(cfgB) {
		t.Fatal("identical configs produced different keys")
	}
	cfgB.Prefetch = true
	if ConfigKey(cfgA) == ConfigKey(cfgB) {
		t.Fatal("differing configs produced the same key")
	}
}

func TestRunAndCache(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	ctx := context.Background()

	res, err := svc.Run(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Cached {
		t.Fatalf("first run should execute and complete: %+v", res)
	}
	again, err := svc.Run(ctx, quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("second identical run was not served from cache")
	}
	if again.ExecSeconds != res.ExecSeconds || again.Committed != res.Committed {
		t.Fatal("cached result diverged")
	}
	m := svc.Metrics()
	if m.JobsRun != 1 || m.JobsCached != 1 {
		t.Fatalf("metrics: run=%d cached=%d, want 1/1", m.JobsRun, m.JobsCached)
	}
}

// TestBatchDeduplication is the acceptance criterion: N identical jobs
// execute the simulation exactly once, with N−1 cache hits.
func TestBatchDeduplication(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4})
	const n = 16
	specs := make([]RunSpec, n)
	for i := range specs {
		specs[i] = quickSpec()
	}
	jobs, err := svc.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != n {
		t.Fatalf("submitted %d jobs, want %d", len(jobs), n)
	}
	var ref *ehs.Result
	for i, job := range jobs {
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if ref == nil {
			ref = res
		} else if res != ref {
			t.Fatalf("job %d got a distinct result object; simulation ran more than once", i)
		}
	}
	m := svc.Metrics()
	if m.JobsRun != 1 {
		t.Fatalf("jobs run = %d, want exactly 1", m.JobsRun)
	}
	if m.JobsCached != n-1 {
		t.Fatalf("cache hits = %d, want %d", m.JobsCached, n-1)
	}
}

// TestConcurrentSubmitters hammers the same spec from many goroutines (run
// with -race): still exactly one execution.
func TestConcurrentSubmitters(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4})
	const submitters = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := svc.Run(context.Background(), quickSpec())
			if err != nil || !res.Completed {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d submitters failed", failures.Load())
	}
	m := svc.Metrics()
	if m.JobsRun != 1 {
		t.Fatalf("jobs run = %d, want exactly 1", m.JobsRun)
	}
	if m.JobsCached != submitters-1 {
		t.Fatalf("cache hits = %d, want %d", m.JobsCached, submitters-1)
	}
}

// TestConcurrentDistinctSpecs exercises the pool with a mixed workload (run
// with -race).
func TestConcurrentDistinctSpecs(t *testing.T) {
	svc := newTestService(t, Options{Workers: 4})
	apps := []string{"jpeg", "gsm", "susan", "crc"}
	var wg sync.WaitGroup
	errs := make(chan error, len(apps)*4)
	for rep := 0; rep < 4; rep++ {
		for _, app := range apps {
			wg.Add(1)
			go func(app string) {
				defer wg.Done()
				spec := RunSpec{App: app, Scale: 0.004}
				if _, err := svc.Run(context.Background(), spec); err != nil {
					errs <- err
				}
			}(app)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if m.JobsRun != int64(len(apps)) {
		t.Fatalf("jobs run = %d, want %d distinct", m.JobsRun, len(apps))
	}
	if m.JobsCached != int64(len(apps)*3) {
		t.Fatalf("cache hits = %d, want %d", m.JobsCached, len(apps)*3)
	}
}

func TestDoProgrammaticJobs(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	var executions atomic.Int64
	compute := func(ctx context.Context) (*ehs.Result, error) {
		executions.Add(1)
		cfg, err := quickSpec().Config()
		if err != nil {
			return nil, err
		}
		return ehs.RunContext(ctx, cfg)
	}
	res1, hit1, err := svc.Do(context.Background(), "prog-key", compute)
	if err != nil {
		t.Fatal(err)
	}
	res2, hit2, err := svc.Do(context.Background(), "prog-key", compute)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Fatalf("hit flags wrong: first=%t second=%t", hit1, hit2)
	}
	if res1 != res2 {
		t.Fatal("cached Do returned a different result object")
	}
	if executions.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", executions.Load())
	}
}

func TestDoCancellation(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, _, err := svc.Do(ctx, "cancel-key", func(jctx context.Context) (*ehs.Result, error) {
		close(started)
		<-jctx.Done() // the caller's cancel must propagate into the job ctx
		return nil, jctx.Err()
	})
	if err == nil {
		t.Fatal("canceled Do returned no error")
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	var attempts atomic.Int64
	failing := func(ctx context.Context) (*ehs.Result, error) {
		attempts.Add(1)
		return nil, errors.New("boom")
	}
	if _, _, err := svc.Do(context.Background(), "flaky", failing); err == nil {
		t.Fatal("expected failure")
	}
	if _, _, err := svc.Do(context.Background(), "flaky", failing); err == nil {
		t.Fatal("expected failure")
	}
	if attempts.Load() != 2 {
		t.Fatalf("failed key should be retried, got %d attempts", attempts.Load())
	}
	if m := svc.Metrics(); m.JobsFailed != 2 {
		t.Fatalf("jobsFailed = %d, want 2", m.JobsFailed)
	}
}

func TestJobTimeout(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1, DefaultTimeout: 10 * time.Millisecond})
	_, _, err := svc.Do(context.Background(), "slow", func(ctx context.Context) (*ehs.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err == nil {
		t.Fatal("timed-out job returned no error")
	}
	if m := svc.Metrics(); m.JobsCanceled != 1 {
		t.Fatalf("jobsCanceled = %d, want 1", m.JobsCanceled)
	}
}

func TestQueueBackpressure(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	blocker := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &ehs.Result{Completed: true}, nil
	}
	// Fill the single worker plus the single queue slot, then overflow.
	done := make(chan struct{}, 2)
	submitted := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		key := []string{"bp-a", "bp-b"}[i]
		go func(key string) {
			submitted <- struct{}{}
			// Retry ErrQueueFull: the two submissions race the worker's
			// pickup, so the second can land while the first still occupies
			// the single queue slot.
			for {
				_, _, err := svc.Do(context.Background(), key, blocker)
				if !errors.Is(err, ErrQueueFull) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			done <- struct{}{}
		}(key)
	}
	<-submitted
	<-submitted
	// Wait until both jobs are registered (one running, one queued).
	deadline := time.After(2 * time.Second)
	for {
		m := svc.Metrics()
		if m.QueueDepth >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		case <-time.After(time.Millisecond):
		}
	}
	_, err := svc.Submit(RunSpec{App: "jpeg", Scale: 0.004})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err=%v, want ErrQueueFull", err)
	}
	close(release)
	<-done
	<-done
}

func TestCancelQueuedJob(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	defer close(release)
	go svc.Do(context.Background(), "hog", func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &ehs.Result{}, nil
	})
	// Wait for the hog to occupy the worker.
	for svc.Metrics().JobsRun == 0 && svc.Metrics().RunSamples == 0 {
		if len(svc.Jobs()) > 0 && svc.Jobs()[0].State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	job, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err == nil {
		t.Fatal("canceled queued job completed successfully")
	}
	st, err := svc.Job(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

// occupyWorker parks a hog job on one worker until the returned channel is
// sent to (or closed), so later submissions pile up in the queue.
func occupyWorker(t *testing.T, svc *Service) (release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	go svc.Do(context.Background(), "hog", func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &ehs.Result{Completed: true}, nil
	})
	deadline := time.After(2 * time.Second)
	for {
		for _, st := range svc.Jobs() {
			if st.State == StateRunning {
				return release
			}
		}
		select {
		case <-deadline:
			t.Fatal("hog never started running")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCancelCoalescedWaiter is the double-close regression: canceling a
// coalesced waiter must detach it from its entry, or the owner's completion
// closes the waiter's done channel a second time and panics a worker.
func TestCancelCoalescedWaiter(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	release := occupyWorker(t, svc)
	defer close(release)

	owner, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if owner.Key() != waiter.Key() {
		t.Fatal("identical specs did not coalesce")
	}
	if err := svc.Cancel(waiter.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := waiter.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	release <- struct{}{} // unblock the hog; owner runs next
	res, err := owner.Wait(context.Background())
	if err != nil || !res.Completed {
		t.Fatalf("owner should complete normally: res=%v err=%v", res, err)
	}
	// The owner's completion must not have re-resolved the canceled waiter.
	st, err := svc.Job(waiter.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("waiter state = %s, want canceled", st.State)
	}
}

// TestCancelQueuedFirstSubmitterKeepsWaiter: canceling the queued first
// submitter must not kill the other clients' coalesced submissions — the
// queued computation belongs to the entry, which still has a live job, so
// it still runs and its result is cached.
func TestCancelQueuedFirstSubmitterKeepsWaiter(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	release := occupyWorker(t, svc)
	defer close(release)

	owner, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(owner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	release <- struct{}{}
	res, err := waiter.Wait(context.Background())
	if err != nil {
		t.Fatalf("waiter failed after the first submitter was canceled: %v", err)
	}
	if !res.Completed {
		t.Fatal("waiter's run did not complete")
	}
	// The result must have landed in the cache for later submissions.
	again, err := svc.Run(context.Background(), quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("the computation's result was not cached")
	}
}

// TestCancelRunningOwnerKeepsWaiters: canceling a running owner fails only
// that job; the in-flight computation still delivers to its waiters.
func TestCancelRunningOwnerKeepsWaiters(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	owner, err := svc.submit(nil, "shared", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		if st, err := svc.Job(owner.ID()); err == nil && st.State == StateRunning {
			break
		}
		select {
		case <-deadline:
			t.Fatal("owner never started running")
		case <-time.After(time.Millisecond):
		}
	}
	waiter, err := svc.submit(nil, "shared", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(owner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	release <- struct{}{}
	res, err := waiter.Wait(context.Background())
	if err != nil {
		t.Fatalf("waiter failed after owner cancel: %v", err)
	}
	if !res.Completed {
		t.Fatal("waiter result incomplete")
	}
}

// TestCanceledOwnerComputationBooksCached pins how a computation is booked
// when its first submitter is canceled while it runs: the coalesced job that
// receives the result counts as cached, and kagura_jobs_total{status="run"}
// counts nothing, although one simulation ran.
func TestCanceledOwnerComputationBooksCached(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	release := make(chan struct{})
	block := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	owner, err := svc.submit(nil, "shared", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, owner)
	waiter, err := svc.submit(nil, "shared", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(owner.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := waiter.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := svc.Metrics()
	if m.JobsRun != 0 || m.JobsCached != 1 || m.JobsCanceled != 1 {
		t.Fatalf("run %d, cached %d, canceled %d; want 0, 1, 1", m.JobsRun, m.JobsCached, m.JobsCanceled)
	}
	prom := m.Prometheus()
	for _, line := range []string{`kagura_jobs_total{status="run"} 0`, `kagura_jobs_total{status="cached"} 1`} {
		if !strings.Contains(prom, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// waitRunning polls until job reaches the running state.
func waitRunning(t *testing.T, svc *Service, job *Job) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		if st, err := svc.Job(job.ID()); err == nil && st.State == StateRunning {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never started running", job.ID())
		case <-time.After(time.Millisecond):
		}
	}
}

// TestCancelLastJobCancelsComputation: once the running first submitter and
// then its only coalesced waiter are canceled, no job is left to deliver
// to, so the computation itself observes ctx.Done() — without its release
// ever being sent.
func TestCancelLastJobCancelsComputation(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	stopped := make(chan struct{})
	block := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			close(stopped)
			return nil, ctx.Err()
		}
	}
	first, err := svc.submit(nil, "abandoned", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, first)
	waiter, err := svc.submit(nil, "abandoned", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(first.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stopped:
		t.Fatal("computation canceled while a waiter was still attached")
	case <-time.After(20 * time.Millisecond):
	}
	if err := svc.Cancel(waiter.ID()); err != nil {
		t.Fatal(err)
	}
	for _, job := range []*Job{first, waiter} {
		if _, err := job.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("job %s err = %v, want context.Canceled", job.ID(), err)
		}
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("computation with no live job left never observed ctx.Done()")
	}
	// The canceled computation leaves nothing behind: the key recomputes.
	res, hit, err := svc.Do(context.Background(), "abandoned", instantCompute(&ehs.Result{Completed: true}))
	if err != nil || hit || !res.Completed {
		t.Fatalf("resubmission after cancel: res=%v hit=%t err=%v, want a fresh run", res, hit, err)
	}
}

// TestAbandonedDoSettlesCanceledAtOnce: a Do whose ctx ends withdraws its
// job by Cancel's rule. The job settles canceled at once, while the
// computation, which still has a coalesced job attached, runs on for it.
func TestAbandonedDoSettlesCanceledAtOnce(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	release := make(chan struct{})
	block := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	doErr := make(chan error, 1)
	go func() {
		_, _, err := svc.Do(ctx, "shared-do", block)
		doErr <- err
	}()
	var doJob *Job
	deadline := time.After(2 * time.Second)
	for doJob == nil {
		svc.mu.Lock()
		for _, job := range svc.jobs {
			if job.key == "shared-do" && job.state == StateRunning {
				doJob = job
			}
		}
		svc.mu.Unlock()
		select {
		case <-deadline:
			t.Fatal("Do job never started running")
		case <-time.After(time.Millisecond):
		}
	}
	waiter, err := svc.submit(nil, "shared-do", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-doErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do err = %v, want context.Canceled", err)
	}
	st, err := svc.Job(doJob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("abandoned Do job state = %s, want canceled at once", st.State)
	}
	close(release)
	res, err := waiter.Wait(context.Background())
	if err != nil || !res.Completed {
		t.Fatalf("coalesced job after the Do was abandoned: res=%v err=%v", res, err)
	}
}

func TestJobsNewestFirst(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2})
	instant := func(ctx context.Context) (*ehs.Result, error) {
		return &ehs.Result{Completed: true}, nil
	}
	for i := 0; i < 5; i++ {
		if _, _, err := svc.Do(context.Background(), fmt.Sprintf("order-%d", i), instant); err != nil {
			t.Fatal(err)
		}
	}
	jobs := svc.Jobs()
	if len(jobs) != 5 {
		t.Fatalf("got %d jobs, want 5", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].ID < jobs[i].ID {
			t.Fatalf("jobs not newest-first: %s before %s", jobs[i-1].ID, jobs[i].ID)
		}
	}
}

func TestConfigKeySeparatesOracles(t *testing.T) {
	cfg, err := quickSpec().Config()
	if err != nil {
		t.Fatal(err)
	}
	a, b := cfg, cfg
	a.Oracle, b.Oracle = ehs.NewOracle(), ehs.NewOracle()
	if ConfigKey(a) == ConfigKey(b) {
		t.Fatal("distinct oracles produced the same key")
	}
	if ConfigKey(a) != ConfigKey(a) {
		t.Fatal("same oracle hashed unstably")
	}
	recordKey := ConfigKey(a)
	a.Oracle.Replay() // flips the same oracle's mode in place
	if ConfigKey(a) == recordKey {
		t.Fatal("record and replay phases produced the same key")
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	svc := New(Options{Workers: 1})
	job, err := svc.Submit(RunSpec{App: "jpeg", Scale: 1.0}) // long run
	if err != nil {
		t.Fatal(err)
	}
	go svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err == nil {
		t.Fatal("job survived service close")
	}
	if _, err := svc.Submit(quickSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err=%v, want ErrClosed", err)
	}
}

func TestJobRetentionPruning(t *testing.T) {
	svc := newTestService(t, Options{Workers: 2, RetainJobs: 4})
	var first *Job
	for i := 0; i < 8; i++ {
		job, err := svc.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = job
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Job(first.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job should be pruned, got err=%v", err)
	}
	if got := len(svc.Jobs()); got != 4 {
		t.Fatalf("retained %d jobs, want 4", got)
	}
}

// hasCompute reports, under the service lock, whether the cache entry of
// job's key still holds a compute closure. A Job never holds one; its entry
// does until a worker starts the computation.
func hasCompute(svc *Service, job *Job) bool {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	e := svc.cache[resultKey(job.key)]
	return e != nil && e.compute != nil
}

// TestSettledJobDropsCompute: a settled job's entry keeps its result, not
// the compute closure (and whatever that captured). An entry computes at
// most once, so the worker takes the closure when it starts the run: a
// running computation's entry no longer holds it, including while it runs
// on for coalesced jobs after its first submitter was canceled.
func TestSettledJobDropsCompute(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	ran, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ran.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []*Job{ran, hit} {
		if hasCompute(svc, job) {
			t.Errorf("settled job %s still holds its compute closure", job.ID())
		}
	}

	release := make(chan struct{})
	block := func(ctx context.Context) (*ehs.Result, error) {
		select {
		case <-release:
			return &ehs.Result{Completed: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	owner, err := svc.submit(nil, "shared", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		if st, err := svc.Job(owner.ID()); err == nil && st.State == StateRunning {
			break
		}
		select {
		case <-deadline:
			t.Fatal("owner never started running")
		case <-time.After(time.Millisecond):
		}
	}
	if hasCompute(svc, owner) {
		t.Fatal("running owner still holds its compute closure")
	}
	waiter, err := svc.submit(nil, "shared", block, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(owner.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if hasCompute(svc, owner) {
		t.Fatal("canceled owner still computing for a waiter holds its compute closure")
	}
	close(release)
	if _, err := waiter.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, job := range []*Job{owner, waiter} {
		if hasCompute(svc, job) {
			t.Errorf("job %s still holds its compute closure after the computation returned", job.ID())
		}
	}
}

// TestNonFiniteSpecRejected covers the floats Normalize's range checks
// cannot see: every comparison with NaN is false, and ±Inf passes a
// one-sided bound. Each must fail Normalize, and Submit must classify it as
// an invalid spec rather than run it.
func TestNonFiniteSpecRejected(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	fields := map[string]func(*RunSpec, float64){
		"scale":          func(s *RunSpec, v float64) { s.Scale = v },
		"increaseStep":   func(s *RunSpec, v float64) { s.IncreaseStep = v },
		"maxSimSeconds":  func(s *RunSpec, v float64) { s.MaxSimSeconds = v },
		"timeoutSeconds": func(s *RunSpec, v float64) { s.TimeoutSeconds = v },
	}
	for name, set := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			spec := RunSpec{App: "jpeg", Scale: 0.01, Kagura: true}
			set(&spec, v)
			if _, err := spec.Normalize(); err == nil {
				t.Errorf("%s=%g: Normalize accepted it", name, v)
			}
			if _, err := svc.Submit(spec); Classify(err) != CodeInvalidSpec {
				t.Errorf("%s=%g: Submit error %v, want an invalid spec", name, v, err)
			}
		}
	}
}

// TestSettledJobsRetainOnlyTheirResults settles distinct codec specs through
// Do and measures the heap they leave behind: each retained job and cache
// entry holds a Result of about half a kilobyte, never the Simulator that
// produced it (its caches alone are well over 100 KiB).
func TestSettledJobsRetainOnlyTheirResults(t *testing.T) {
	const jobs = 64
	const maxPerJob = 16 << 10
	svc := newTestService(t, Options{Workers: 2})
	settle := func(seed uint64) {
		spec := quickSpec()
		spec.Seed = seed
		key, err := spec.key()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.Do(context.Background(), key, func(ctx context.Context) (*ehs.Result, error) {
			return ehs.RunContext(ctx, cfg)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One settled job first, so lazily built service state is not counted.
	settle(jobs + 1)
	before := heapInUse()
	for seed := uint64(1); seed <= jobs; seed++ {
		settle(seed)
	}
	perJob := (int64(heapInUse()) - int64(before)) / jobs
	if n := svc.CacheLen(); n != jobs+1 {
		t.Fatalf("cache holds %d results, want %d", n, jobs+1)
	}
	t.Logf("retained heap per settled job: %d B", perJob)
	if perJob > maxPerJob {
		t.Fatalf("each settled job retains %d B of heap, want ≤ %d", perJob, maxPerJob)
	}
}

// heapInUse returns the bytes of live heap objects after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
