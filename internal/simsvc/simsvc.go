// Package simsvc is the simulation service: a concurrent job scheduler with
// a content-addressed result cache in front of the ehs simulator.
//
// Large evaluation campaigns — the paper's sensitivity sweeps, parameter
// tuning, API traffic — re-run thousands of near-identical simulations.
// Because runs are deterministic pure functions of their configuration, any
// two jobs with the same canonical configuration hash produce byte-identical
// results, so the service executes each distinct configuration exactly once:
// completed results are memoized, and identical in-flight submissions are
// coalesced onto the running computation instead of queued again.
//
// Architecture:
//
//	Submit/SubmitBatch/Do ──► cache lookup ──► hit: finish instantly
//	                              │
//	                              ├─► in flight: attach to the entry
//	                              │
//	                              └─► miss: new entry ──► bounded FIFO queue ──► worker pool
//	                                          │                                     │
//	                                          └── compute, context (timeout + ───────┘
//	                                              cancellation), attached jobs
//
// A Job is only a handle: the computation belongs to its in-flight cache
// entry, which every identical submission shares. One cancel rule covers
// every case: canceling a job (Cancel, or a Do/Run caller whose ctx ends)
// settles that job alone, and an entry left with no live job is resolved as
// canceled at once, its context canceled.
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

// Errors returned by submission, each carrying its taxonomy code.
var (
	// ErrClosed reports submission to a closed service.
	ErrClosed = &Error{Code: CodeServiceClosed, Err: errors.New("simsvc: service closed")}
	// ErrQueueFull reports that the bounded job queue is at capacity.
	ErrQueueFull = &Error{Code: CodeQueueFull, Err: errors.New("simsvc: queue full")}
	// ErrOverloaded reports that the load-shedding breaker is open: queue
	// occupancy crossed shedHighWater and has not yet drained below
	// shedLowWater. It wraps ErrQueueFull so callers treating "no capacity"
	// uniformly keep working; HTTP maps it to 503 + Retry-After.
	ErrOverloaded = &Error{Code: CodeOverloaded, Err: fmt.Errorf("simsvc: overloaded, load shed: %w", ErrQueueFull)}
	// ErrUnknownJob reports a lookup of a job ID the service doesn't know
	// (never submitted, or pruned after retention).
	ErrUnknownJob = &Error{Code: CodeUnknownJob, Err: errors.New("simsvc: unknown job")}
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
	// recomputes (or reloads it from the store). In-flight entries — a
	// computation still running, whatever jobs it has attached — are never
	// evicted and do not count against the bound. Negative means unbounded (one entry
	// retained per distinct key, forever — an OOM under sustained
	// unique-spec traffic).
	CacheCapacity int

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
	return o
}

// The load-shedding breaker opens when queue occupancy reaches shedHighWater
// of QueueDepth: submissions then fail fast with ErrOverloaded instead of
// absorbing the last queue slots. It closes once occupancy drains to
// shedLowWater. The gap is hysteresis: the breaker does not flap at the
// boundary.
const (
	shedHighWater = 0.9
	shedLowWater  = 0.45
)

// Job is the handle of one submission: its identity, spec, trace and
// outcome. The computation it resolves from belongs to its cache entry.
// Fields are guarded by the service mutex until done is closed; after that
// the outcome fields are immutable.
type Job struct {
	id   string
	key  string
	spec *RunSpec // nil for programmatic (Do) jobs
	// forkCycle is the warm-start provenance: non-zero when the job was
	// submitted through a batch forkPoint, recording the base-run cycle its
	// simulation resumed from.
	forkCycle int64
	done      chan struct{}

	// trace is the job's phase timeline, self-synchronized; GET
	// /v1/jobs/{id} exposes it. The first submitter's trace also records
	// its computation (queued → store → warm-start → compute).
	trace *obs.Trace

	// Guarded by Service.mu until done closes.
	state State
	// cached marks a job that did not start the computation it resolved
	// from: a cache hit, or a submission coalesced onto an in-flight twin.
	cached   bool
	res      *ehs.Result
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
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

// entry is one cache slot of either kind, ready or in flight. An in-flight
// entry is resolved exactly once, by resolveLocked, which publishes or
// deletes it and closes done.
//
// An in-flight result entry owns its computation: the compute closure, its
// context and timeout, the journal flag, and the jobs attached to it — the
// first submitter, whose trace records the computation, and every identical
// submission coalesced onto it. The worker queue holds these entries. A
// snapshot entry is computed by the fork that created it; other forks wait
// on done (warmSnapshot).
type entry struct {
	done  chan struct{}
	ready bool
	res   *ehs.Result   // result entries
	snap  *ehs.Snapshot // snapshot entries
	err   error         // the outcome, once resolved
	// bytes is the estimated retained size of the value, booked against the
	// kagura_cache_bytes gauge while the entry is listed.
	bytes int
	// elem is the entry's slot in the LRU list, set when the entry is
	// published. In-flight entries are never listed, which is what pins
	// them against eviction.
	elem *list.Element

	// The computation of an in-flight result entry; cleared when it
	// resolves. A worker takes compute when it starts the run.
	first   *Job
	jobs    []*Job // the live attached jobs, in submission order
	compute func(context.Context) (*ehs.Result, error)
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelFunc
	// journaled marks an entry whose intent record reached the journal:
	// resolving it appends the settle.
	journaled bool
}

// resolved reports whether the entry has left flight.
func (e *entry) resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Service schedules simulation jobs on a bounded worker pool with a
// content-addressed result cache. Create with New, dispose with Close.
type Service struct {
	opts    Options
	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *entry
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
	// shedding is the load-shedding breaker state (see shedHighWater).
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
		queue:   make(chan *entry, opts.QueueDepth),
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
	// synchronously inside finishEntry, so by the time wg.Wait returns every
	// entry a worker finished cleanly has its settle in the journal. Only then
	// does the drain below abandon what's left in the queue (ErrClosed while
	// closed does NOT settle — those intents replay after restart), and only
	// after that does the store pump flush and close. A graceful SIGTERM
	// therefore leaves a journal whose pending set is exactly the abandoned
	// work: no spurious replays of jobs that settled on the way down.
	s.stop() // cancels every entry context derived from baseCtx
	s.wg.Wait()

	// Fail whatever is still sitting in the queue so its jobs unblock.
drain:
	for {
		select {
		case e := <-s.queue:
			s.finishEntry(e, nil, ErrClosed, false)
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
// an identical in-flight job). Canceling ctx cancels the job as Cancel
// does.
func (s *Service) Do(ctx context.Context, key string, compute func(context.Context) (*ehs.Result, error)) (*ehs.Result, bool, error) {
	// Do jobs carry an opaque closure the journal could not replay, so they
	// are never journaled (nil record).
	job, err := s.submit(nil, key, compute, s.opts.DefaultTimeout, 0, nil)
	if err != nil {
		return nil, false, err
	}
	if err := s.await(ctx, job); err != nil {
		return nil, false, err
	}
	return job.res, job.cached, nil
}

// Run schedules one spec and blocks for its result — the synchronous HTTP
// path (POST /v1/run). Canceling ctx cancels the job as Cancel does.
func (s *Service) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	job, err := s.Submit(spec)
	if err != nil {
		return nil, err
	}
	if err := s.await(ctx, job); err != nil {
		return nil, err
	}
	rr := NewRunResult(job.spec, job.key, job.cached, job.res)
	rr.WarmStartFromCycle = job.forkCycle
	return rr, nil
}

// await blocks until job settles and returns its error. If ctx ends first
// the job is withdrawn by Cancel's rule — it settles canceled at once, and
// a computation no other job waits for is canceled — and ctx's error is
// returned. Once await returns nil the job's outcome fields are immutable.
func (s *Service) await(ctx context.Context, job *Job) error {
	select {
	case <-job.done:
		return job.err
	case <-ctx.Done():
		s.withdraw(job)
		return ctx.Err()
	}
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

// Cancel cancels a job by ID: the job settles as canceled at once and
// detaches from its computation, which keeps running for any other job
// attached to it. A computation left with no live job is canceled — a
// queued one never runs, a running one observes its context at the
// simulator's next cancellation check. Canceling an already-finished job is
// a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	s.withdraw(job)
	return nil
}

// withdraw is the one cancel rule. A live job settles canceled and leaves
// its entry's jobs; an entry left with none is resolved canceled, which
// cancels its context and appends the journal settle it owes.
func (s *Service) withdraw(job *Job) {
	s.mu.Lock()
	if terminalState(job.state) {
		s.mu.Unlock()
		return
	}
	// A live job's entry is in flight, and in-flight entries stay in the
	// cache until they resolve.
	k := resultKey(job.key)
	e := s.cache[k]
	for i, j := range e.jobs {
		if j == job {
			e.jobs = append(e.jobs[:i], e.jobs[i+1:]...)
			break
		}
	}
	s.settleLocked(job, nil, context.Canceled, false, time.Now())
	settleKey := ""
	if len(e.jobs) == 0 {
		settleKey = s.resolveLocked(k, e, context.Canceled, 0, nil)
	}
	s.mu.Unlock()
	s.journalSettle(settleKey)
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

// submit registers a job and routes it: instant cache hit, attach to an
// in-flight twin, or a new entry queued for a worker. A new entry writes its
// intent record (jr, when journaling is on) through the journal.
func (s *Service) submit(spec *RunSpec, key string, compute func(context.Context) (*ehs.Result, error), timeout time.Duration, forkCycle int64, jr *journal.Record) (*Job, error) {
	job, e, err := s.submitLocked(spec, key, compute, timeout, forkCycle)
	if err != nil {
		s.logEvent("job.reject", slog.String("key", key), slog.String("code", string(Classify(err))))
		return nil, err
	}
	if e != nil && jr != nil {
		s.journalIntent(e, *jr)
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

// submitLocked routes the job. The returned entry is non-nil when the job
// created one and won it a queue slot — the only case that journals intent;
// cache hits and attached jobs ride the entry's record.
func (s *Service) submitLocked(spec *RunSpec, key string, compute func(context.Context) (*ehs.Result, error), timeout time.Duration, forkCycle int64) (*Job, *entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	s.seq++
	job := &Job{
		id:        fmt.Sprintf("job-%08d", s.seq),
		key:       key,
		spec:      spec,
		forkCycle: forkCycle,
		done:      make(chan struct{}),
		state:     StateQueued,
		created:   time.Now(),
	}
	job.trace = obs.NewTrace(job.created)

	ck := resultKey(key)
	e := s.cache[ck]
	switch {
	case e != nil && e.ready:
		s.lru.MoveToFront(e.elem)
		job.trace.Begin(obs.PhaseCached, job.created)
		s.jobs[job.id] = job
		s.settleLocked(job, e.res, nil, true, job.created)
		return job, nil, nil
	case e != nil:
		if ierr := faultinject.SimsvcCoalesce.FireErr(); ierr != nil {
			s.met.countError(Classify(ierr))
			return nil, nil, ierr
		}
		job.trace.Begin(obs.PhaseCoalesced, job.created)
		e.jobs = append(e.jobs, job)
		s.jobs[job.id] = job
		return job, nil, nil
	case s.shedLocked():
		s.met.jobsShed++
		s.met.countError(CodeOverloaded)
		return nil, nil, ErrOverloaded
	}
	e = &entry{done: make(chan struct{}), first: job, jobs: []*Job{job}, compute: compute, timeout: timeout}
	select {
	case s.queue <- e:
	default:
		s.met.countError(CodeQueueFull)
		return nil, nil, ErrQueueFull
	}
	// Workers read the entry under s.mu, which is still held.
	e.ctx, e.cancel = context.WithCancel(s.baseCtx)
	job.trace.Begin(obs.PhaseQueued, job.created)
	s.met.queueDepthHist.Observe(float64(len(s.queue)))
	s.cache[ck] = e
	s.jobs[job.id] = job
	return job, e, nil
}

// shedLocked evaluates and returns the load-shedding breaker: it opens when
// queue occupancy reaches the high-water mark and closes only once it drains
// below the low-water mark. Callers hold s.mu.
func (s *Service) shedLocked() bool {
	depth := len(s.queue)
	high := max(int(float64(s.opts.QueueDepth)*shedHighWater), 1)
	low := int(float64(s.opts.QueueDepth) * shedLowWater)
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
		case e := <-s.queue:
			s.runEntry(e)
		}
	}
}

// runEntry runs one queued entry's computation and resolves the entry. An
// entry whose jobs all withdrew while it was queued is already resolved and
// is skipped. The computation runs at most once: a failure — including a
// recovered panic — resolves the entry at once, because the simulator is a
// pure function and would fail the same way again.
func (s *Service) runEntry(e *entry) {
	s.mu.Lock()
	if e.resolved() {
		s.mu.Unlock()
		return
	}
	started := time.Now()
	first := e.first
	if !terminalState(first.state) {
		first.state, first.started = StateRunning, started
	}
	var compute func(context.Context) (*ehs.Result, error)
	compute, e.compute = e.compute, nil
	ctx := e.ctx
	queued := started.Sub(first.created)
	s.met.queueNanos += queued.Nanoseconds()
	s.met.queueCount++
	s.met.queueSecondsHist.Observe(queued.Seconds())
	s.mu.Unlock()

	// Persistent-tier fall-through: a memory miss may still be on disk from
	// a previous run (or process). A hit skips the simulation entirely; the
	// result then publishes into the memory LRU like a computed one, but is
	// not written back to the disk it came from.
	computeStart := started
	if s.store != nil {
		first.trace.Begin(obs.PhaseStore, started)
		if res, ok := s.storeGetResult(first.key); ok {
			s.finishEntry(e, res, nil, true)
			return
		}
		computeStart = time.Now()
	}
	first.trace.Begin(obs.PhaseCompute, computeStart)

	// Carry the trace so compute paths (warm-start snapshot resolution) can
	// open their own phases inside the compute span.
	ctx = obs.WithTrace(ctx, first.trace)
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
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
	s.finishEntry(e, res, err, false)
}

// safeCompute shields the worker pool from panicking compute functions. The
// recovered panic surfaces as an *Error with code panic and is counted in
// kagura_panics_recovered_total. The job settles with it at once: a panic is
// a crash the worker survives, not a reason to run again.
func (s *Service) safeCompute(ctx context.Context, compute func(context.Context) (*ehs.Result, error)) (res *ehs.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.met.panicsRecovered++
			s.mu.Unlock()
			res, err = nil, &Error{Code: CodePanic, Err: fmt.Errorf("simsvc: job panicked: %v", r)}
		}
	}()
	return compute(ctx)
}

// terminalState reports whether st is one of the three terminal states.
func terminalState(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// finishEntry resolves a result entry with its computation's outcome and
// appends the journal settle it owes after releasing the lock. A result
// read from the store (fromStore) is not written back to it. An entry
// already resolved — every job withdrew — is left alone.
func (s *Service) finishEntry(e *entry, res *ehs.Result, err error, fromStore bool) {
	s.mu.Lock()
	if e.resolved() {
		s.mu.Unlock()
		return
	}
	first := e.first
	var bytes int
	var encode func() ([]byte, error)
	if err == nil {
		e.res = res
		bytes = resultBytes(res)
		s.met.resultBytesHist.Observe(float64(bytes))
		if !fromStore {
			encode = func() ([]byte, error) { return ckpt.EncodeResult(res) }
		}
	}
	settleKey := s.resolveLocked(resultKey(first.key), e, err, bytes, encode)
	s.mu.Unlock()
	s.journalSettle(settleKey)
	s.logFinish(first)
}

// resolveLocked takes an in-flight entry of either kind out of flight — the
// one resolution path. Success publishes the value the caller set on e,
// sized bytes and written through by encode; failure deletes the entry so a
// later use recomputes. done closes, the computation's context is released,
// and every job still attached settles with the outcome: the first
// submitter as the job that ran it, the rest as cached. The returned key is
// non-empty when the caller must append a journal settle for it (outside
// the lock). Callers hold s.mu and resolve an entry at most once.
func (s *Service) resolveLocked(k cacheKey, e *entry, err error, bytes int, encode func() ([]byte, error)) (settleKey string) {
	now := time.Now()
	e.err = err
	if err == nil {
		s.publishLocked(k, e, bytes, encode)
	} else {
		delete(s.cache, k)
	}
	close(e.done)
	if e.cancel != nil {
		e.cancel()
	}
	for _, job := range e.jobs {
		s.settleLocked(job, e.res, err, job != e.first, now)
	}
	// Resolution is the journal's settle point: the intent the submit record
	// promised is now spent — unless shutdown abandoned it (see
	// settlesLocked), in which case it stays pending for replay.
	if e.journaled && s.settlesLocked(err) {
		settleKey = k.key
	}
	e.first, e.jobs, e.compute, e.ctx, e.cancel = nil, nil, nil, nil, nil
	return settleKey
}

// settleLocked moves one live job to its terminal state and books it: a
// success counts as run, or as cached when the job did not start the
// computation. Callers hold s.mu.
func (s *Service) settleLocked(job *Job, res *ehs.Result, err error, cached bool, now time.Time) {
	job.res, job.err, job.cached, job.finished = res, err, cached && err == nil, now
	switch {
	case err == nil:
		job.state = StateDone
		if job.cached {
			s.met.jobsCached++
			break
		}
		s.met.jobsRun++
		if !job.started.IsZero() {
			s.met.runNanos += now.Sub(job.started).Nanoseconds()
			s.met.runCount++
			s.met.runSecondsHist.Observe(now.Sub(job.started).Seconds())
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = StateCanceled
		s.met.jobsCanceled++
	default:
		job.state = StateFailed
		s.met.jobsFailed++
	}
	if err != nil {
		s.met.countError(Classify(err))
	}
	job.trace.End(now)
	close(job.done)
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
