// Package simsvc is the simulation service: a concurrent job scheduler with
// a content-addressed result cache in front of the ehs simulator.
//
// Large evaluation campaigns — the paper's sensitivity sweeps, parameter
// tuning, API traffic — re-run thousands of near-identical simulations.
// Because runs are deterministic pure functions of their configuration, any
// two jobs with the same canonical configuration hash produce byte-identical
// results, so the service executes each distinct configuration exactly once:
// completed results are memoized, and identical in-flight submissions are
// coalesced onto the running job instead of queued again.
//
// Architecture:
//
//	Submit/SubmitBatch/Do ──► cache lookup ──► hit: finish instantly
//	                              │
//	                              ├─► in flight: ride along as a waiter
//	                              │
//	                              └─► miss: bounded FIFO queue ──► worker pool
//	                                                                │
//	                                            per-job context ────┘
//	                                        (timeout + cancellation)
//
// The same scheduler serves two frontends: the JSON HTTP API (NewHandler,
// cmd/kagura-serve) via RunSpec jobs, and programmatic clients
// (experiments.Lab) via Do with a caller-supplied compute function and
// ConfigKey-derived cache key.
package simsvc

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"

	"kagura/internal/ckpt"
	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/journal"
	"kagura/internal/obs"
	"kagura/internal/store"
)

// Errors returned by submission.
var (
	// ErrClosed reports submission to a closed service.
	ErrClosed = errors.New("simsvc: service closed")
	// ErrQueueFull reports that the bounded job queue is at capacity.
	ErrQueueFull = errors.New("simsvc: queue full")
	// ErrOverloaded reports that the load-shedding breaker is open: queue
	// occupancy crossed ShedHighWater and has not yet drained below
	// ShedLowWater. It wraps ErrQueueFull so callers treating "no capacity"
	// uniformly keep working; HTTP maps it to 503 + Retry-After.
	ErrOverloaded = fmt.Errorf("simsvc: overloaded, load shed: %w", ErrQueueFull)
	// ErrUnknownJob reports a lookup of a job ID the service doesn't know
	// (never submitted, or pruned after retention).
	ErrUnknownJob = errors.New("simsvc: unknown job")
)

// State is a job's lifecycle position.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Options configures a Service.
type Options struct {
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 1024). Submission
	// beyond it fails with ErrQueueFull — backpressure instead of unbounded
	// memory.
	QueueDepth int
	// DefaultTimeout bounds each job's execution when the spec doesn't set
	// its own (0 ⇒ no timeout).
	DefaultTimeout time.Duration
	// RetainJobs bounds how many finished jobs stay queryable by ID before
	// the oldest are pruned (default 4096).
	RetainJobs int
	// CacheCapacity bounds the memory cache to this many completed entries
	// (default 4096), results and warm-start snapshots together; beyond it
	// the least-recently-used completed entry is evicted and its next use
	// recomputes (or reloads it from the store). In-flight entries — an owner
	// still computing, with or without waiters — are never evicted and do
	// not count against the bound. Negative means unbounded (one entry
	// retained per distinct key, forever — an OOM under sustained
	// unique-spec traffic).
	CacheCapacity int

	// ShedHighWater opens the load-shedding breaker when queue occupancy
	// reaches this fraction of QueueDepth (default 0.9): submissions fail
	// fast with ErrOverloaded instead of absorbing the last queue slots.
	ShedHighWater float64
	// ShedLowWater closes the breaker once occupancy drains below this
	// fraction (default 0.5). The gap is hysteresis: the breaker does not
	// flap at the boundary.
	ShedLowWater float64

	// StoreDir, when non-empty, enables the persistent tier: a crash-safe
	// on-disk store (internal/store) under this directory that result-cache
	// and warm-start misses fall through to before computing, and that
	// successful computes write through to asynchronously. Results persist
	// across restarts: a new service over the same directory serves
	// previously computed specs from disk, byte-identical to a recompute.
	StoreDir string
	// StoreBudgetBytes bounds the disk bytes the store retains before
	// evicting oldest-access entries (0 ⇒ store.DefaultBudgetBytes, 1 GiB;
	// negative ⇒ unbounded).
	StoreBudgetBytes int64

	// Journal, when non-nil, is the durable intent log the service writes
	// through on job submit and settle (see journal.go for the replay
	// invariant). The journal is owned by the caller — typically opened by
	// kagura-serve beside the store directory — and is NOT closed by
	// Service.Close: settles appended during a graceful drain must land
	// before the owner closes the log.
	Journal *journal.Journal

	// Logger, when non-nil, receives structured job lifecycle events
	// (submit, reject, finish) carrying the job ID, cache key, state and
	// taxonomy error code. Nil — the default, and what benchmarks run
	// with — disables logging entirely; the instrumentation then costs one
	// nil check per event. kagura-serve wires a JSON handler behind
	// -log-json.
	Logger *slog.Logger
}

// DefaultOptions returns production defaults.
func DefaultOptions() Options {
	return Options{
		Workers:       runtime.GOMAXPROCS(0),
		QueueDepth:    1024,
		RetainJobs:    4096,
		CacheCapacity: 4096,
	}
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 4096
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	if o.CacheCapacity < 0 {
		o.CacheCapacity = 0 // negative means "unbounded"
	}
	if o.ShedHighWater <= 0 || o.ShedHighWater > 1 {
		o.ShedHighWater = 0.9
	}
	if o.ShedLowWater <= 0 || o.ShedLowWater >= o.ShedHighWater {
		o.ShedLowWater = o.ShedHighWater / 2
	}
	return o
}

// Job is one scheduled simulation. Fields are guarded by the service mutex
// until done is closed; after that the result fields are immutable. A job
// drops its compute closure when a worker takes it or when it settles
// without running.
type Job struct {
	id      string
	key     string
	spec    *RunSpec // nil for programmatic (Do) jobs
	compute func(context.Context) (*ehs.Result, error)
	timeout time.Duration
	// forkCycle is the warm-start provenance: non-zero when the job was
	// submitted through a batch forkPoint, recording the base-run cycle its
	// simulation resumed from.
	forkCycle int64

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// trace is the job's phase timeline (queued → store → warm-start →
	// compute), self-synchronized; GET /v1/jobs/{id} exposes it.
	trace *obs.Trace

	// Guarded by Service.mu until done closes.
	state  State
	cached bool
	// fromStore marks a job served from the persistent tier, so its result
	// is not written back to the disk it just came from.
	fromStore bool
	res       *ehs.Result
	err       error
	created   time.Time
	started   time.Time
	finished  time.Time
	// journaled marks a job whose submit record reached the intent journal;
	// only such jobs append settles. On owner promotion (Cancel) the flag
	// transfers to the promoted waiter along with the cache entry.
	journaled bool
}

// ID returns the job's service-unique identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's content-addressed cache key.
func (j *Job) Key() string { return j.key }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// ForkCycle returns the base-run cycle this job warm-started from, or 0 for
// a cold run.
func (j *Job) ForkCycle() int64 { return j.forkCycle }

// Wait blocks until the job finishes or ctx is canceled. The job keeps
// running if ctx expires first; its result lands in the cache regardless.
func (j *Job) Wait(ctx context.Context) (*ehs.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
		return j.res, j.err
	}
}

// JobStatus is a point-in-time wire-level snapshot of a job.
type JobStatus struct {
	ID           string    `json:"id"`
	Key          string    `json:"key"`
	State        State     `json:"state"`
	Cached       bool      `json:"cached,omitempty"`
	Error        string    `json:"error,omitempty"`
	CreatedAt    time.Time `json:"createdAt"`
	QueueSeconds float64   `json:"queueSeconds"`
	RunSeconds   float64   `json:"runSeconds"`
	// WarmStartFromCycle is non-zero for jobs submitted through a batch
	// forkPoint: the base-run cycle their simulation resumed from.
	WarmStartFromCycle int64      `json:"warmStartFromCycle,omitempty"`
	Spec               *RunSpec   `json:"spec,omitempty"`
	Result             *RunResult `json:"result,omitempty"`
	// Trace is the job's phase timeline: contiguous queued/coalesced/cached/
	// store/warmstart/compute spans whose durations sum to the job's wall
	// time. A live job's open span is reported through the snapshot instant.
	Trace []obs.Span `json:"trace,omitempty"`
}

// cacheKey identifies one memory-cache entry: the same (kind, key) identity
// the persistent store files it under. A result's key is its job key; a
// warm-start snapshot's is warmStoreKey(baseKey, cycles).
type cacheKey struct {
	kind store.Kind
	key  string
}

// resultKey is the cache identity of a job's result.
func resultKey(key string) cacheKey { return cacheKey{kind: store.KindResult, key: key} }

// entry is one cache slot, ready or in flight. Waiting is per kind: a result
// entry in flight has an owner job with coalesced waiter jobs, resolved by
// finishJobLocked; a snapshot entry in flight has a running fork computation
// as owner, and other forks block on done (warmSnapshot).
type entry struct {
	owner   *Job
	waiters []*Job
	done    chan struct{} // snapshot entries: closed once the owner settles
	ready   bool
	res     *ehs.Result   // result entries
	snap    *ehs.Snapshot // snapshot entries
	// bytes is the estimated retained size of the value, booked against the
	// kagura_cache_bytes gauge while the entry is listed.
	bytes int
	// elem is the entry's slot in the LRU list, set when the entry is
	// published. In-flight entries are never listed, which is what pins
	// them against eviction.
	elem *list.Element
}

// Service schedules simulation jobs on a bounded worker pool with a
// content-addressed result cache. Create with New, dispose with Close.
type Service struct {
	opts    Options
	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	// cache holds results and warm-start snapshots under one bound.
	cache map[cacheKey]*entry
	// lru orders the ready cache entries of both kinds (front = most
	// recently used); its cacheKeys are exactly the ready entries, so its
	// length is the bounded count and the back is the next eviction victim.
	lru      *list.List
	jobs     map[string]*Job
	finished []string // FIFO of terminal job IDs, for retention pruning
	seq      uint64
	met      metrics
	// shedding is the load-shedding breaker state (see Options.ShedHighWater).
	shedding bool

	// Persistent tier (nil unless Options.StoreDir is set and opened). The
	// pump goroutine drains storeQ until Close closes it; storeErr records a
	// startup open failure (the service then serves memory-only).
	store    *store.Store
	storeErr error
	storeQ   chan storeWrite
	storeWG  sync.WaitGroup

	// Intent journal (nil unless Options.Journal is set; see journal.go).
	// replaying gates /readyz while StartJournalReplay catches up.
	jnl       *journal.Journal
	replaying bool
}

// New creates a Service and starts its worker pool.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:    opts,
		baseCtx: ctx,
		stop:    cancel,
		queue:   make(chan *Job, opts.QueueDepth),
		cache:   make(map[cacheKey]*entry),
		lru:     list.New(),
		jobs:    make(map[string]*Job),
		jnl:     opts.Journal,
	}
	s.met.init()
	s.openStore()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Options returns the service's effective options.
func (s *Service) Options() Options { return s.opts }

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to exit. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	// Shutdown ordering matters for crash-tolerance: settles are appended
	// synchronously inside finishJob, so by the time wg.Wait returns every
	// job a worker finished cleanly has its settle in the journal. Only then
	// does the drain below abandon what's left in the queue (ErrClosed while
	// closed does NOT settle — those intents replay after restart), and only
	// after that does the store pump flush and close. A graceful SIGTERM
	// therefore leaves a journal whose pending set is exactly the abandoned
	// work: no spurious replays of jobs that settled on the way down.
	s.stop() // cancels every job context derived from baseCtx
	s.wg.Wait()

	// Fail whatever is still sitting in the queue so waiters unblock. A slot
	// may belong to a promoted waiter rather than the job that was enqueued
	// (see Cancel); resolve it the same way a worker would.
drain:
	for {
		select {
		case job := <-s.queue:
			s.mu.Lock()
			job = s.slotOwnerLocked(job)
			s.mu.Unlock()
			if job != nil {
				s.finishJob(job, nil, ErrClosed)
			}
		default:
			break drain
		}
	}

	// Flush the pending store publishes: a graceful shutdown persists every
	// write it accepted, which is what makes restart-survival deterministic
	// rather than racy. Workers have exited, so nothing enqueues anymore.
	if s.storeQ != nil {
		close(s.storeQ)
		s.storeWG.Wait()
	}
}

// Submit schedules one spec-described run and returns immediately. Identical
// specs (same content key) coalesce: only the first executes, the rest finish
// as cache hits.
func (s *Service) Submit(spec RunSpec) (*Job, error) {
	norm, key, timeout, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}
	// Only a worker builds the config (app plus power trace); hits never do.
	compute := func(ctx context.Context) (*ehs.Result, error) {
		cfg, err := norm.Config()
		if err != nil {
			return nil, err
		}
		return ehs.RunContext(ctx, cfg)
	}
	return s.submit(&norm, key, compute, timeout, 0, s.submitRecord(&norm, key))
}

// resolve validates a spec with a single Normalize and returns its canonical
// form, content key and timeout. Normalize rejects every spec Config could
// not build, so a job that passed resolve never fails on its spec.
func (s *Service) resolve(spec RunSpec) (RunSpec, string, time.Duration, error) {
	norm, err := spec.Normalize()
	key := ""
	if err == nil {
		key, err = norm.key()
	}
	if err != nil {
		return norm, "", 0, s.badSpec(err)
	}
	timeout := s.opts.DefaultTimeout
	if norm.TimeoutSeconds > 0 {
		timeout = time.Duration(norm.TimeoutSeconds * float64(time.Second))
	}
	return norm, key, timeout, nil
}

// SubmitBatch schedules many runs, stopping at the first invalid spec. Jobs
// already submitted keep running; their results stay cached for a retry.
func (s *Service) SubmitBatch(specs []RunSpec) ([]*Job, error) {
	jobs := make([]*Job, 0, len(specs))
	for i, spec := range specs {
		job, err := s.Submit(spec)
		if err != nil {
			return jobs, fmt.Errorf("simsvc: batch[%d]: %w", i, err)
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// Do schedules compute under a caller-chosen content key and blocks for the
// result: the programmatic entry point (experiments.Lab). The returned bool
// reports whether the result came from the cache (including coalescing onto
// an identical in-flight job). Canceling ctx abandons the wait AND cancels
// the job if this call owns it and nobody else is coalesced onto it.
func (s *Service) Do(ctx context.Context, key string, compute func(context.Context) (*ehs.Result, error)) (*ehs.Result, bool, error) {
	// Do jobs carry an opaque closure the journal could not replay, so they
	// are never journaled (nil record).
	job, err := s.submit(nil, key, compute, s.opts.DefaultTimeout, 0, nil)
	if err != nil {
		return nil, false, err
	}
	// Propagate caller cancellation into the job (no-op once it finished).
	stop := context.AfterFunc(ctx, func() { s.cancelIfAlone(job) })
	defer stop()
	res, err := job.Wait(ctx)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	cached := job.cached
	s.mu.Unlock()
	return res, cached, nil
}

// Run schedules one spec and blocks for its result — the synchronous HTTP
// path (POST /v1/run).
func (s *Service) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	job, err := s.Submit(spec)
	if err != nil {
		return nil, err
	}
	// Abandoned synchronous requests only cancel jobs nobody else is
	// waiting on; coalesced jobs keep running for their other waiters.
	stop := context.AfterFunc(ctx, func() { s.cancelIfAlone(job) })
	defer stop()
	res, err := job.Wait(ctx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cached := job.cached
	s.mu.Unlock()
	rr := NewRunResult(job.spec, job.key, cached, res)
	rr.WarmStartFromCycle = job.forkCycle
	return rr, nil
}

// Job returns a job's status snapshot by ID.
func (s *Service) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return s.statusLocked(job), nil
}

// JobTraceOTLP renders a job's phase trace as an OTLP/JSON trace export for
// offline analysis with standard tracing tooling (`GET /v1/jobs/{id}?format=otlp`
// on the HTTP API). The trace ID is derived from the job ID, so re-exports of
// the same job carry the same identity.
func (s *Service) JobTraceOTLP(id string) ([]byte, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// Trace is internally synchronized; marshal outside the service lock.
	return job.trace.MarshalOTLP("kagura-simsvc", job.id, time.Now())
}

// Jobs returns snapshots of every retained job, newest first.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, job := range s.jobs {
		out = append(out, s.statusLocked(job))
	}
	// Newest first by ID (IDs are zero-padded sequence numbers, so the
	// lexicographic order is the submission order).
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Cancel cancels a job by ID. Queued jobs fail immediately; running jobs
// observe their context at the simulator's next cancellation check. The
// underlying computation is only killed when no other submission is coalesced
// onto it: canceling a waiter detaches just that waiter, canceling a queued
// owner hands its place in line to the first waiter, and canceling a running
// owner fails the job but lets the computation finish for the others.
// Canceling an already-finished job is a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if terminalState(job.state) {
		s.mu.Unlock()
		return nil
	}
	now := time.Now()
	e := s.cache[resultKey(job.key)]
	switch {
	case e == nil || (e.owner == job && len(e.waiters) == 0):
		// Nobody else depends on this computation: kill it outright. A queued
		// job resolves here; a running one when its compute observes the ctx.
		queued := job.state == StateQueued
		settleKey := ""
		if queued {
			settleKey = s.finishJobLocked(job, nil, context.Canceled, now)
		}
		s.mu.Unlock()
		s.journalSettle(settleKey)
		if !queued {
			job.cancel()
		}
	case e.owner != job:
		// Coalesced waiter: detach it (inside finishJobLocked) so the owner's
		// completion doesn't resolve it a second time; the owner keeps going.
		s.finishJobLocked(job, nil, context.Canceled, now)
		s.mu.Unlock()
	case job.state == StateQueued:
		// Queued owner with waiters: promote the first waiter to owner before
		// finishing, so the entry resolution sees a non-owner and leaves the
		// entry alive. The promoted job inherits the canceled job's queue slot
		// when a worker drains it (slotOwnerLocked) — and the canceled job's
		// journal record: the intent is still being computed, so the settle
		// responsibility moves with the entry rather than firing here.
		e.owner, e.waiters = e.waiters[0], e.waiters[1:]
		if job.journaled {
			e.owner.journaled = true
		}
		s.finishJobLocked(job, nil, context.Canceled, now)
		s.mu.Unlock()
	default:
		// Running owner with waiters: fail only this job's interest, leaving
		// its context — and with it the in-flight computation — alive for the
		// remaining waiters. finishJob delivers the outcome to them when the
		// computation returns, and releases the context then.
		s.met.jobsCanceled++
		s.met.countError(CodeCanceled)
		job.res, job.err, job.cached, job.finished = nil, context.Canceled, false, now
		job.state = StateCanceled
		job.trace.End(now)
		close(job.done)
		s.retainLocked(job)
		s.mu.Unlock()
	}
	return nil
}

// statusLocked builds a snapshot; callers hold s.mu.
func (s *Service) statusLocked(job *Job) JobStatus {
	now := time.Now()
	st := JobStatus{
		ID:                 job.id,
		Key:                job.key,
		State:              job.state,
		Cached:             job.cached,
		CreatedAt:          job.created,
		WarmStartFromCycle: job.forkCycle,
		Spec:               job.spec,
		Trace:              job.trace.Spans(now),
	}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	switch {
	case job.state == StateQueued:
		st.QueueSeconds = now.Sub(job.created).Seconds()
	case !job.started.IsZero():
		st.QueueSeconds = job.started.Sub(job.created).Seconds()
	case !job.finished.IsZero(): // finished without running (cache hit)
		st.QueueSeconds = job.finished.Sub(job.created).Seconds()
	}
	if !job.started.IsZero() {
		end := job.finished
		if end.IsZero() {
			end = now
		}
		st.RunSeconds = end.Sub(job.started).Seconds()
	}
	if job.state == StateDone && job.res != nil {
		st.Result = NewRunResult(job.spec, job.key, job.cached, job.res)
		st.Result.WarmStartFromCycle = job.forkCycle
	}
	return st
}

// submit registers a job and routes it: instant cache hit, coalesce onto an
// in-flight twin, or enqueue for a worker. A job that wins a queue slot
// writes its intent record (jr, when journaling is on) through the journal.
func (s *Service) submit(spec *RunSpec, key string, compute func(context.Context) (*ehs.Result, error), timeout time.Duration, forkCycle int64, jr *journal.Record) (*Job, error) {
	job, enqueued, err := s.submitLocked(spec, key, compute, timeout, forkCycle)
	if err != nil {
		s.logEvent("job.reject", slog.String("key", key), slog.String("code", string(Classify(err))))
		return nil, err
	}
	if enqueued && jr != nil {
		s.journalIntent(job, *jr)
	}
	if s.opts.Logger != nil {
		s.mu.Lock()
		st := job.state
		s.mu.Unlock()
		s.logEvent("job.submit", slog.String("job", job.id), slog.String("key", job.key),
			slog.String("state", string(st)))
	}
	return job, nil
}

// logEvent emits one structured lifecycle event when logging is enabled.
// Every call site sits outside s.mu, so a slow log sink never extends lock
// hold time; with a nil Logger the instrumentation costs one pointer check.
func (s *Service) logEvent(msg string, attrs ...any) {
	if s.opts.Logger == nil {
		return
	}
	s.opts.Logger.Info(msg, attrs...)
}

// logFinish emits the terminal lifecycle event for a job. Called after s.mu
// is released; a terminal job's fields are immutable, so the unlocked reads
// are safe.
func (s *Service) logFinish(job *Job) {
	if s.opts.Logger == nil {
		return
	}
	attrs := []any{
		slog.String("job", job.id),
		slog.String("key", job.key),
		slog.String("state", string(job.state)),
	}
	if job.err != nil {
		attrs = append(attrs, slog.String("code", string(Classify(job.err))))
	}
	s.opts.Logger.Info("job.finish", attrs...)
}

// submitLocked routes the job; the returned bool reports whether it won its
// own queue slot (the only case that journals intent — cache hits and
// coalesced waiters ride the owning submission's record).
func (s *Service) submitLocked(spec *RunSpec, key string, compute func(context.Context) (*ehs.Result, error), timeout time.Duration, forkCycle int64) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	s.seq++
	job := &Job{
		id:        fmt.Sprintf("job-%08d", s.seq),
		key:       key,
		spec:      spec,
		compute:   compute,
		timeout:   timeout,
		forkCycle: forkCycle,
		done:      make(chan struct{}),
		state:     StateQueued,
		created:   time.Now(),
	}
	job.trace = obs.NewTrace(job.created)
	job.ctx, job.cancel = context.WithCancel(s.baseCtx)
	s.jobs[job.id] = job

	ck := resultKey(key)
	e := s.cache[ck]
	switch {
	case e != nil && e.ready:
		s.lru.MoveToFront(e.elem)
		job.trace.Begin(obs.PhaseCached, job.created)
		s.met.jobsCached++
		s.finishOneLocked(job, e.res, nil, true, job.created)
	case e != nil:
		if ierr := faultinject.SimsvcCoalesce.FireErr(); ierr != nil {
			delete(s.jobs, job.id)
			job.cancel()
			s.met.countError(Classify(ierr))
			return nil, false, ierr
		}
		job.trace.Begin(obs.PhaseCoalesced, job.created)
		e.waiters = append(e.waiters, job)
	default:
		if s.shedLocked() {
			delete(s.jobs, job.id)
			job.cancel()
			s.met.jobsShed++
			s.met.countError(CodeOverloaded)
			return nil, false, ErrOverloaded
		}
		select {
		case s.queue <- job:
			job.trace.Begin(obs.PhaseQueued, job.created)
			s.met.queueDepthHist.Observe(float64(len(s.queue)))
			s.cache[ck] = &entry{owner: job}
			return job, true, nil
		default:
			delete(s.jobs, job.id)
			job.cancel()
			s.met.countError(CodeQueueFull)
			return nil, false, ErrQueueFull
		}
	}
	return job, false, nil
}

// shedLocked evaluates and returns the load-shedding breaker: it opens when
// queue occupancy reaches the high-water mark and closes only once it drains
// below the low-water mark. Callers hold s.mu.
func (s *Service) shedLocked() bool {
	depth := len(s.queue)
	high := int(float64(s.opts.QueueDepth) * s.opts.ShedHighWater)
	if high < 1 {
		high = 1
	}
	low := int(float64(s.opts.QueueDepth) * s.opts.ShedLowWater)
	switch {
	case !s.shedding && depth >= high:
		s.shedding = true
	case s.shedding && depth <= low:
		s.shedding = false
	}
	return s.shedding
}

// Ready reports whether the service is accepting new work, with a reason
// when it is not — the /readyz contract. A shedding service is alive
// (healthz) but not ready; probes re-evaluate the breaker, so readiness
// recovers as soon as the queue drains.
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return false, "closed"
	case s.replaying:
		return false, "replaying journal"
	case s.shedLocked():
		return false, "shedding load"
	default:
		return true, "ok"
	}
}

// RetryAfterSeconds estimates when rejected work is worth retrying: the time
// for the current queue to drain through the worker pool at the observed
// mean run latency, never less than one second. Serves the Retry-After
// header on 503 responses.
func (s *Service) RetryAfterSeconds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var mean float64
	if s.met.runCount > 0 {
		mean = float64(s.met.runNanos) / 1e9 / float64(s.met.runCount)
	}
	secs := int(mean*float64(len(s.queue))/float64(s.opts.Workers)) + 1
	if secs < 1 {
		secs = 1
	}
	return secs
}

// worker consumes the queue until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// cancelIfAlone cancels job's computation unless other submissions are
// coalesced onto it: an abandoned caller must not fail the remaining waiters.
func (s *Service) cancelIfAlone(job *Job) {
	s.mu.Lock()
	e := s.cache[resultKey(job.key)]
	alone := e == nil || (e.owner == job && len(e.waiters) == 0)
	s.mu.Unlock()
	if alone {
		job.cancel()
	}
}

// slotOwnerLocked resolves which job a dequeued queue slot should execute:
// normally the dequeued job itself, but when Cancel promoted a coalesced
// waiter to owner, the slot passes to the promoted job (which was never
// enqueued itself — each cache entry holds exactly one slot). Returns nil for
// a dead slot. Callers hold s.mu.
func (s *Service) slotOwnerLocked(job *Job) *Job {
	for job.state != StateQueued {
		e := s.cache[resultKey(job.key)]
		if e == nil || e.owner == nil || e.owner == job {
			return nil
		}
		job = e.owner // follows promotion chains; ends at a queued job or cycles out
	}
	return job
}

// runJob executes one owned job and resolves its cache entry. The job runs
// its compute at most once: a failure — including a recovered panic — settles
// it at once, because the simulator is a pure function and would fail the
// same way again.
func (s *Service) runJob(job *Job) {
	s.mu.Lock()
	job = s.slotOwnerLocked(job)
	if job == nil { // canceled while waiting, slot not handed to anyone
		s.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	var compute func(context.Context) (*ehs.Result, error)
	compute, job.compute = job.compute, nil
	s.met.queueNanos += job.started.Sub(job.created).Nanoseconds()
	s.met.queueCount++
	s.met.queueSecondsHist.Observe(job.started.Sub(job.created).Seconds())
	s.mu.Unlock()

	// Persistent-tier fall-through: a memory miss may still be on disk from
	// a previous run (or process). A hit skips the simulation entirely; the
	// result then publishes into the memory LRU like a computed one, but is
	// not written back to the disk it came from (fromStore).
	computeStart := job.started
	if s.store != nil {
		job.trace.Begin(obs.PhaseStore, job.started)
		if res, ok := s.storeGetResult(job.key); ok {
			s.mu.Lock()
			job.fromStore = true
			s.mu.Unlock()
			s.finishJob(job, res, nil)
			return
		}
		computeStart = time.Now()
	}
	job.trace.Begin(obs.PhaseCompute, computeStart)

	// Carry the trace so compute paths (warm-start snapshot resolution) can
	// open their own phases inside the compute span.
	ctx := obs.WithTrace(job.ctx, job.trace)
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.timeout)
		defer cancel()
	}
	// The injection points run inside safeCompute's recover shield: an
	// injected panic must be indistinguishable from a compute crash, not a
	// worker kill.
	res, err := s.safeCompute(ctx, func(ctx context.Context) (*ehs.Result, error) {
		if ierr := faultinject.SimsvcCompute.Fire(ctx); ierr != nil {
			return nil, ierr
		}
		res, err := compute(ctx)
		if err == nil {
			if ierr := faultinject.SimsvcCacheInsert.Fire(ctx); ierr != nil {
				return nil, ierr
			}
		}
		return res, err
	})
	s.finishJob(job, res, err)
}

// safeCompute shields the worker pool from panicking compute functions. The
// recovered panic surfaces as a *panicError (taxonomy code panic) and is
// counted in kagura_panics_recovered_total.
func (s *Service) safeCompute(ctx context.Context, compute func(context.Context) (*ehs.Result, error)) (res *ehs.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.met.panicsRecovered++
			s.mu.Unlock()
			res, err = nil, &panicError{val: r}
		}
	}()
	return compute(ctx)
}

// terminalState reports whether st is one of the three terminal states.
func terminalState(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// finishJob moves a job to a terminal state, publishes (or clears) the cache
// entry it owns, resolves coalesced waiters, and — when the outcome retires
// a journaled intent — appends the settle record after releasing the lock.
func (s *Service) finishJob(job *Job, res *ehs.Result, err error) {
	s.mu.Lock()
	settleKey := s.finishJobLocked(job, res, err, time.Now())
	s.mu.Unlock()
	s.journalSettle(settleKey)
	s.logFinish(job)
}

// finishJobLocked is finishJob with s.mu held. The returned key is non-empty
// when the caller must append a journal settle for it (outside the lock).
func (s *Service) finishJobLocked(job *Job, res *ehs.Result, err error, now time.Time) string {
	ck := resultKey(job.key)
	e := s.cache[ck]
	ownsEntry := e != nil && e.owner == job
	if terminalState(job.state) {
		// The job was already resolved individually (Cancel), but if it still
		// owns a live cache entry its computation ran on for the coalesced
		// waiters: fall through to deliver the outcome to them.
		if !ownsEntry {
			return ""
		}
	} else {
		// Book the job's own outcome.
		switch {
		case err == nil:
			s.met.jobsRun++
			if !job.started.IsZero() {
				s.met.runNanos += now.Sub(job.started).Nanoseconds()
				s.met.runCount++
				s.met.runSecondsHist.Observe(now.Sub(job.started).Seconds())
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.met.jobsCanceled++
		default:
			s.met.jobsFailed++
		}
		// A coalesced waiter finishing on its own (Cancel) detaches from its
		// entry so the owner's completion doesn't resolve it a second time.
		if e != nil && !ownsEntry {
			for i, w := range e.waiters {
				if w == job {
					e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
					break
				}
			}
		}
	}

	// Resolve the cache entry this job owns. Success publishes the result;
	// failure clears the slot so a later submission can recompute. Coalesced waiters
	// inherit the owner's outcome, successes counting as cache hits.
	settleKey := ""
	if ownsEntry {
		// Entry resolution is the journal's settle point: the intent the
		// submit record promised is now spent — unless shutdown abandoned it
		// (see settlesLocked), in which case it stays pending for replay.
		if job.journaled && s.settlesLocked(err) {
			settleKey = job.key
		}
		waiters := e.waiters
		if err == nil {
			e.res, e.owner, e.waiters = res, nil, nil
			bytes := resultBytes(res)
			s.met.resultBytesHist.Observe(float64(bytes))
			// Write the result through to the persistent tier — unless it
			// was just served from there.
			var encode func() ([]byte, error)
			if !job.fromStore {
				encode = func() ([]byte, error) { return ckpt.EncodeResult(res) }
			}
			s.publishLocked(ck, e, bytes, encode)
		} else {
			delete(s.cache, ck)
		}
		for _, w := range waiters {
			switch {
			case err == nil:
				s.met.jobsCached++
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				s.met.jobsCanceled++
			default:
				s.met.jobsFailed++
			}
			s.finishOneLocked(w, res, err, err == nil, now)
		}
	}
	s.finishOneLocked(job, res, err, false, now)
	job.cancel() // idempotent; also releases a detached owner's context once its computation returns
	return settleKey
}

// finishOneLocked moves a single job to a terminal state — result fields,
// done channel, context, retention — without touching its cache entry.
// Already-terminal jobs are left untouched, so a job resolved individually
// can never have its done channel closed twice. Dropping the compute closure
// leaves a retained job holding its result, not what the caller captured.
// Callers hold s.mu.
func (s *Service) finishOneLocked(job *Job, res *ehs.Result, err error, cached bool, now time.Time) {
	if terminalState(job.state) {
		return
	}
	job.res, job.err, job.cached, job.finished = res, err, cached, now
	job.compute = nil
	switch {
	case err == nil:
		job.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = StateCanceled
	default:
		job.state = StateFailed
	}
	if err != nil {
		s.met.countError(Classify(err))
	}
	job.trace.End(now)
	close(job.done)
	job.cancel()
	s.retainLocked(job)
}

// publishLocked makes an in-flight entry ready — the one publish path for
// both kinds: it joins the front of the LRU list, books its bytes, evicts
// beyond CacheCapacity, and, when encode is non-nil, writes through to the
// persistent tier. Callers hold s.mu.
func (s *Service) publishLocked(k cacheKey, e *entry, bytes int, encode func() ([]byte, error)) {
	e.ready, e.bytes = true, bytes
	e.elem = s.lru.PushFront(k)
	s.met.cacheBytes += int64(bytes)
	if k.kind == store.KindCheckpoint {
		s.met.cachedSnapshots++
	}
	s.evictCacheLocked()
	if encode != nil {
		s.publishStoreLocked(k.kind, k.key, encode)
	}
}

// evictCacheLocked evicts least-recently-used ready entries until the cache
// is back within CacheCapacity. Only ready entries live in the LRU list, so
// in-flight entries of either kind — and with them every waiter, which
// exists only on in-flight entries — are structurally exempt from eviction.
// An evicted entry stays valid for whoever already holds it. Callers hold
// s.mu.
func (s *Service) evictCacheLocked() {
	excess := 0
	if s.opts.CacheCapacity > 0 {
		excess = s.lru.Len() - s.opts.CacheCapacity
	}
	if faultinject.SimsvcWarmEvict.FireErr() != nil {
		// Injected fault: evict one entry prematurely, forcing later forks
		// and submissions to race the loss of an entry they were about to
		// reuse.
		excess = max(excess, 0) + 1
	}
	for ; excess > 0 && s.lru.Len() > 0; excess-- {
		back := s.lru.Back()
		k := back.Value.(cacheKey)
		s.lru.Remove(back)
		e := s.cache[k]
		s.met.cacheBytes -= int64(e.bytes)
		if k.kind == store.KindCheckpoint {
			s.met.cachedSnapshots--
		}
		delete(s.cache, k)
		s.met.cacheEvictions++
	}
}

// resultBytes estimates the retained size of a cached result: the struct
// plus the backing array of its cycle log. A Result owns nothing of the
// Simulator that produced it, so that is all a cached result keeps alive;
// the entry's map slot, LRU element and key string are not counted. An
// estimate is enough — the kagura_cache_bytes gauge exists to show growth and
// the effect of eviction, not to account for the allocator.
func resultBytes(r *ehs.Result) int {
	if r == nil {
		return 0
	}
	return int(unsafe.Sizeof(*r)) + cap(r.Cycles)*int(unsafe.Sizeof(ehs.CycleRecord{}))
}

// noteError books a taxonomy-coded failure that never became a job (request
// validation, HTTP-level rejections); job failures are booked at finish.
func (s *Service) noteError(code ErrorCode) {
	s.mu.Lock()
	s.met.countError(code)
	s.mu.Unlock()
}

// retainLocked records a terminal job and prunes beyond the retention bound.
func (s *Service) retainLocked(job *Job) {
	s.finished = append(s.finished, job.id)
	for len(s.finished) > s.opts.RetainJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// CacheLen returns the number of ready memory-cache entries, results and
// warm-start snapshots together — the count CacheCapacity bounds. The LRU
// list holds exactly the ready entries, so its length is the answer in O(1).
func (s *Service) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
