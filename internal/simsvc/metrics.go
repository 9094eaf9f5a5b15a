package simsvc

import (
	"fmt"
	"strings"

	"kagura/internal/journal"
	"kagura/internal/obs"
	"kagura/internal/store"
)

// Histogram bucket bounds. Buckets are fixed — never adaptive — so the
// exposition stays byte-stable for a given set of observations and series
// remain comparable across restarts and deployments (DESIGN.md §11).
var (
	// latencySecondsBuckets spans sub-millisecond cache hits through
	// multi-minute sweep legs, roughly 2.5× apart.
	latencySecondsBuckets = []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300,
	}
	// queueDepthBuckets are powers of two up to the default QueueDepth, plus
	// an explicit empty-queue bucket.
	queueDepthBuckets = []float64{
		0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
	}
	// sizeBytesBuckets cover 1 KiB through 64 MiB, 4× apart — results are
	// about 1 KiB plus their cycle log, and encoded snapshots a few KiB.
	sizeBytesBuckets = []float64{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20,
	}
)

// metrics holds the service counters; guarded by Service.mu.
type metrics struct {
	// jobsRun counts successful jobs that were their computation's first
	// submitter and still attached when it finished — not simulations: a
	// computation whose first submitter was canceled books its finish as
	// cached for the coalesced jobs, and no series counts it as run.
	jobsRun      int64
	jobsCached   int64 // successful jobs served from the cache or coalesced in flight
	jobsFailed   int64
	jobsCanceled int64

	// Per-stage latency accumulators (nanoseconds).
	queueNanos int64 // submit → worker pickup
	queueCount int64
	runNanos   int64 // worker pickup → successful completion
	runCount   int64

	// Warm-start snapshot cache outcomes. Each hit skips re-simulating the
	// base prefix, saving warmCyclesSaved simulated cycles in total.
	warmHits        int64
	warmMisses      int64
	warmCyclesSaved int64

	// Resilience counters.
	panicsRecovered int64 // compute panics caught by a worker
	jobsShed        int64 // submissions rejected by the load-shedding breaker
	degradedRuns    int64 // warm starts downgraded to cold runs
	// errorsByCode tallies terminal and rejection errors by taxonomy code.
	errorsByCode map[ErrorCode]int64

	// Memory cache accounting, both kinds: evictions from the bounded
	// cache, and the estimated bytes currently retained by ready entries.
	// cachedSnapshots counts the ready snapshot entries; the rest of the
	// LRU list is results.
	cacheEvictions  int64
	cacheBytes      int64
	cachedSnapshots int

	// storePublishDrops counts asynchronous store writes dropped because the
	// publish queue was full (persistence is best-effort; serving is not).
	storePublishDrops int64

	// journalReplayed counts jobs re-submitted from the intent journal at
	// startup (the journal's own counters live in journal.MetricsSnapshot).
	journalReplayed int64

	// Fixed-bucket histograms; guarded by Service.mu like the counters, so
	// the unsynchronized obs.Histogram is safe here.
	queueSecondsHist  *obs.Histogram
	runSecondsHist    *obs.Histogram
	queueDepthHist    *obs.Histogram
	resultBytesHist   *obs.Histogram
	snapshotBytesHist *obs.Histogram
}

// init constructs the histograms; called once from New before any job flows.
func (m *metrics) init() {
	m.queueSecondsHist = obs.NewHistogram(latencySecondsBuckets...)
	m.runSecondsHist = obs.NewHistogram(latencySecondsBuckets...)
	m.queueDepthHist = obs.NewHistogram(queueDepthBuckets...)
	m.resultBytesHist = obs.NewHistogram(sizeBytesBuckets...)
	m.snapshotBytesHist = obs.NewHistogram(sizeBytesBuckets...)
}

// countError books one error under its taxonomy code.
func (m *metrics) countError(code ErrorCode) {
	if m.errorsByCode == nil {
		m.errorsByCode = make(map[ErrorCode]int64)
	}
	m.errorsByCode[code]++
}

// MetricsSnapshot is a point-in-time view of the service counters.
type MetricsSnapshot struct {
	// JobsRun counts successful jobs that submitted their computation first
	// and were still attached when it finished (kagura_jobs_total{status="run"});
	// it undercounts simulations when a first submitter is canceled.
	JobsRun      int64 `json:"jobsRun"`
	JobsCached   int64 `json:"jobsCached"`
	JobsFailed   int64 `json:"jobsFailed"`
	JobsCanceled int64 `json:"jobsCanceled"`
	QueueDepth   int   `json:"queueDepth"`
	Workers      int   `json:"workers"`
	CachedKeys   int   `json:"cachedKeys"`

	// Warm starts: reuse outcomes, ready snapshots in the memory cache, and
	// total simulated cycles skipped by reusing prefixes.
	WarmStartHits   int64 `json:"warmStartHits"`
	WarmStartMisses int64 `json:"warmStartMisses"`
	WarmSnapshots   int   `json:"warmSnapshots"`
	WarmCyclesSaved int64 `json:"warmCyclesSaved"`

	// Per-stage latency: total seconds and sample counts.
	QueueSecondsTotal float64 `json:"queueSecondsTotal"`
	QueueSamples      int64   `json:"queueSamples"`
	RunSecondsTotal   float64 `json:"runSecondsTotal"`
	RunSamples        int64   `json:"runSamples"`

	// Resilience: recovered compute panics, shed submissions, warm starts
	// degraded to cold runs, the breaker state, and error totals keyed by
	// taxonomy code (only non-zero codes appear).
	PanicsRecovered int64            `json:"panicsRecovered"`
	JobsShed        int64            `json:"jobsShed"`
	DegradedRuns    int64            `json:"degradedRuns"`
	Shedding        bool             `json:"shedding"`
	Errors          map[string]int64 `json:"errors,omitempty"`

	// Memory cache occupancy and eviction pressure, results and snapshots
	// together. CacheCapacity is the configured entry bound (0 = unbounded);
	// CacheBytes estimates the bytes retained by ready entries.
	CacheBytes     int64 `json:"cacheBytes"`
	CacheCapacity  int   `json:"cacheCapacity"`
	CacheEvictions int64 `json:"cacheEvictions"`

	// Persistent store tier (internal/store): enabled state, disk-tier
	// counters, and publishes dropped because the async write queue was
	// full. Store fields are all zero when the tier is disabled.
	StoreEnabled      bool                  `json:"storeEnabled"`
	Store             store.MetricsSnapshot `json:"store"`
	StorePublishDrops int64                 `json:"storePublishDrops"`

	// Intent journal (internal/journal): enabled state, the journal's own
	// counters, and jobs re-submitted by startup replay. Journal fields are
	// all zero when journaling is disabled.
	JournalEnabled      bool                    `json:"journalEnabled"`
	Journal             journal.MetricsSnapshot `json:"journal"`
	JournalReplayedJobs int64                   `json:"journalReplayedJobs"`

	// Latency and size distributions (fixed buckets; see DESIGN.md §11).
	QueueSeconds  obs.HistogramSnapshot `json:"queueSeconds"`
	RunSeconds    obs.HistogramSnapshot `json:"runSeconds"`
	QueueDepths   obs.HistogramSnapshot `json:"queueDepths"`
	ResultBytes   obs.HistogramSnapshot `json:"resultBytes"`
	SnapshotBytes obs.HistogramSnapshot `json:"snapshotBytes"`
}

// AvgQueueSeconds returns the mean submit→pickup latency.
func (m MetricsSnapshot) AvgQueueSeconds() float64 {
	if m.QueueSamples == 0 {
		return 0
	}
	return m.QueueSecondsTotal / float64(m.QueueSamples)
}

// AvgRunSeconds returns the mean execution latency of completed runs.
func (m MetricsSnapshot) AvgRunSeconds() float64 {
	if m.RunSamples == 0 {
		return 0
	}
	return m.RunSecondsTotal / float64(m.RunSamples)
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := MetricsSnapshot{
		JobsRun:           s.met.jobsRun,
		JobsCached:        s.met.jobsCached,
		JobsFailed:        s.met.jobsFailed,
		JobsCanceled:      s.met.jobsCanceled,
		QueueDepth:        len(s.queue),
		Workers:           s.opts.Workers,
		QueueSecondsTotal: float64(s.met.queueNanos) / 1e9,
		QueueSamples:      s.met.queueCount,
		RunSecondsTotal:   float64(s.met.runNanos) / 1e9,
		RunSamples:        s.met.runCount,
		WarmStartHits:     s.met.warmHits,
		WarmStartMisses:   s.met.warmMisses,
		WarmSnapshots:     s.met.cachedSnapshots,
		WarmCyclesSaved:   s.met.warmCyclesSaved,
		PanicsRecovered:   s.met.panicsRecovered,
		JobsShed:          s.met.jobsShed,
		DegradedRuns:      s.met.degradedRuns,
		Shedding:          s.shedding,
		CacheBytes:        s.met.cacheBytes,
		CacheCapacity:     s.opts.CacheCapacity,
		CacheEvictions:    s.met.cacheEvictions,
		StorePublishDrops: s.met.storePublishDrops,
		QueueSeconds:      s.met.queueSecondsHist.Snapshot(),
		RunSeconds:        s.met.runSecondsHist.Snapshot(),
		QueueDepths:       s.met.queueDepthHist.Snapshot(),
		ResultBytes:       s.met.resultBytesHist.Snapshot(),
		SnapshotBytes:     s.met.snapshotBytesHist.Snapshot(),
	}
	snap.JournalReplayedJobs = s.met.journalReplayed
	if s.store != nil {
		snap.StoreEnabled = true
		snap.Store = s.store.Metrics()
	}
	if s.jnl != nil {
		snap.JournalEnabled = true
		// The journal lock is a leaf (it never takes s.mu), so nesting it
		// under s.mu here cannot deadlock.
		snap.Journal = s.jnl.Metrics()
	}
	if len(s.met.errorsByCode) > 0 {
		snap.Errors = make(map[string]int64, len(s.met.errorsByCode))
		// Fixed iteration over the code catalog, not the map: rendering paths
		// downstream must stay byte-stable.
		for _, code := range errorCodes {
			if n := s.met.errorsByCode[code]; n > 0 {
				snap.Errors[string(code)] = n
			}
		}
	}
	snap.CachedKeys = s.lru.Len() - s.met.cachedSnapshots // the LRU lists exactly the ready entries
	return snap
}

// Prometheus renders the snapshot in the Prometheus text exposition format
// (GET /metrics).
func (m MetricsSnapshot) Prometheus() string {
	var b strings.Builder
	obs.MetricJobsTotal.Header(&b)
	obs.MetricJobsTotal.Sample(&b, `status="run"`, m.JobsRun)
	obs.MetricJobsTotal.Sample(&b, `status="cached"`, m.JobsCached)
	obs.MetricJobsTotal.Sample(&b, `status="failed"`, m.JobsFailed)
	obs.MetricJobsTotal.Sample(&b, `status="canceled"`, m.JobsCanceled)
	obs.MetricQueueDepth.Single(&b, m.QueueDepth)
	obs.MetricWorkers.Single(&b, m.Workers)
	obs.MetricCachedKeys.Single(&b, m.CachedKeys)
	obs.MetricStageSecondsTotal.Header(&b)
	obs.MetricStageSecondsTotal.Sample(&b, `stage="queue"`, m.QueueSecondsTotal)
	obs.MetricStageSecondsTotal.Sample(&b, `stage="run"`, m.RunSecondsTotal)
	obs.MetricStageSamplesTotal.Header(&b)
	obs.MetricStageSamplesTotal.Sample(&b, `stage="queue"`, m.QueueSamples)
	obs.MetricStageSamplesTotal.Sample(&b, `stage="run"`, m.RunSamples)
	obs.MetricWarmStartTotal.Header(&b)
	obs.MetricWarmStartTotal.Sample(&b, `result="hit"`, m.WarmStartHits)
	obs.MetricWarmStartTotal.Sample(&b, `result="miss"`, m.WarmStartMisses)
	obs.MetricWarmSnapshots.Single(&b, m.WarmSnapshots)
	obs.MetricWarmCyclesSavedTotal.Single(&b, m.WarmCyclesSaved)
	obs.MetricPanicsRecoveredTotal.Single(&b, m.PanicsRecovered)
	obs.MetricJobsShedTotal.Single(&b, m.JobsShed)
	obs.MetricDegradedRuns.Single(&b, m.DegradedRuns)
	obs.MetricShedding.Single(&b, oneIf(m.Shedding))
	obs.MetricErrorsTotal.Header(&b)
	// Every code renders every time, in catalog order — never by ranging the
	// map — so the exposition stays byte-stable.
	for _, code := range errorCodes {
		obs.MetricErrorsTotal.Sample(&b, fmt.Sprintf(`code=%q`, string(code)), m.Errors[string(code)])
	}
	obs.MetricCacheBytes.Single(&b, m.CacheBytes)
	obs.MetricCacheCapacity.Single(&b, m.CacheCapacity)
	obs.MetricCacheEvictionsTotal.Single(&b, m.CacheEvictions)
	// Persistent store tier. The families render unconditionally — zeros when
	// the tier is disabled — so the exposition stays byte-stable across
	// configurations with the same traffic.
	obs.MetricStoreEnabled.Single(&b, oneIf(m.StoreEnabled))
	obs.MetricStoreHitsTotal.Header(&b)
	obs.MetricStoreHitsTotal.Sample(&b, `kind="result"`, m.Store.ResultHits)
	obs.MetricStoreHitsTotal.Sample(&b, `kind="checkpoint"`, m.Store.CheckpointHits)
	obs.MetricStoreMissesTotal.Header(&b)
	obs.MetricStoreMissesTotal.Sample(&b, `kind="result"`, m.Store.ResultMisses)
	obs.MetricStoreMissesTotal.Sample(&b, `kind="checkpoint"`, m.Store.CheckpointMisses)
	obs.MetricStoreEntries.Single(&b, m.Store.Entries)
	obs.MetricStoreBytes.Single(&b, m.Store.Bytes)
	obs.MetricStoreWritesTotal.Single(&b, m.Store.Writes)
	obs.MetricStoreWriteErrorsTotal.Single(&b, m.Store.WriteErrors)
	obs.MetricStoreEvictionsTotal.Single(&b, m.Store.Evictions)
	obs.MetricStoreCorruptTotal.Single(&b, m.Store.CorruptEntries)
	obs.MetricStorePublishDropsTotal.Single(&b, m.StorePublishDrops)
	// Intent journal. Like the store families: unconditional, zeros when off.
	obs.MetricJournalEnabled.Single(&b, oneIf(m.JournalEnabled))
	obs.MetricJournalAppendsTotal.Single(&b, m.Journal.Appends)
	obs.MetricJournalAppendErrorsTotal.Single(&b, m.Journal.AppendErrors)
	obs.MetricJournalRotationsTotal.Single(&b, m.Journal.Rotations)
	obs.MetricJournalCorruptSegmentsTotal.Single(&b, m.Journal.CorruptSegments)
	obs.MetricJournalBytes.Single(&b, m.Journal.SizeBytes)
	obs.MetricJournalPendingJobs.Single(&b, m.Journal.PendingJobs)
	obs.MetricJournalReplayedJobsTotal.Single(&b, m.JournalReplayedJobs)
	obs.MetricJobPhaseSeconds.Header(&b)
	m.QueueSeconds.WritePrometheus(&b, obs.MetricJobPhaseSeconds, `phase="queue"`)
	m.RunSeconds.WritePrometheus(&b, obs.MetricJobPhaseSeconds, `phase="run"`)
	obs.MetricQueueDepthObserved.Header(&b)
	m.QueueDepths.WritePrometheus(&b, obs.MetricQueueDepthObserved, "")
	obs.MetricResultBytes.Header(&b)
	m.ResultBytes.WritePrometheus(&b, obs.MetricResultBytes, "")
	obs.MetricWarmSnapshotBytes.Header(&b)
	m.SnapshotBytes.WritePrometheus(&b, obs.MetricWarmSnapshotBytes, "")
	return b.String()
}

// oneIf renders a boolean state as the 0/1 value a Prometheus gauge carries.
func oneIf(v bool) int {
	if v {
		return 1
	}
	return 0
}
