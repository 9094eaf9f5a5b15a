package obs

import (
	"fmt"
	"strings"
)

// A Family is one catalogued metric family: its name, Prometheus type, and
// HELP text. Families exist only as the values declared below — the fields
// and constructors are unexported — so a renderer writes each header and
// sample name from a catalog value, never from a string of its own.
// Dashboards, alerts, and recording rules key off these names, so a rename
// must be a reviewed diff here; the package tests check that every name is
// well formed and unique.
type Family struct {
	name string
	typ  string // "counter", "gauge" or "histogram"
	help string
}

// Name returns the family name, e.g. "kagura_jobs_total".
func (f *Family) Name() string { return f.name }

// Header writes the family's # HELP and # TYPE lines.
func (f *Family) Header(b *strings.Builder) {
	b.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.typ + "\n")
}

// Sample writes one sample line: the family name, the label list in braces
// when labels is non-empty (e.g. `kind="result"`), and the value as %v
// prints it — integers in decimal, floats in %g form.
func (f *Family) Sample(b *strings.Builder, labels string, value any) {
	if labels == "" {
		fmt.Fprintf(b, "%s %v\n", f.name, value)
		return
	}
	fmt.Fprintf(b, "%s{%s} %v\n", f.name, labels, value)
}

// Single writes a family that has one unlabeled sample: its header, then
// the sample.
func (f *Family) Single(b *strings.Builder, value any) {
	f.Header(b)
	f.Sample(b, "", value)
}

// catalog holds every family in declaration order.
var catalog []*Family

func family(typ, name, help string) *Family {
	f := &Family{name: name, typ: typ, help: help}
	catalog = append(catalog, f)
	return f
}

func counter(name, help string) *Family   { return family("counter", name, help) }
func gauge(name, help string) *Family     { return family("gauge", name, help) }
func histogram(name, help string) *Family { return family("histogram", name, help) }

// The metric catalog: every kagura_* family the service exposes on /metrics.
// Grouped by subsystem; the campaign families render from the campaign
// exposition, everything else from the simsvc exposition.
var (
	// Service throughput and occupancy.
	MetricJobsTotal  = counter("kagura_jobs_total", "Jobs by terminal outcome.")
	MetricQueueDepth = gauge("kagura_queue_depth", "Jobs waiting for a worker.")
	MetricWorkers    = gauge("kagura_workers", "Size of the worker pool.")
	MetricCachedKeys = gauge("kagura_cached_keys", "Distinct memoized configurations.")

	// Stage timings.
	MetricStageSecondsTotal = counter("kagura_stage_seconds_total", "Cumulative per-stage latency.")
	MetricStageSamplesTotal = counter("kagura_stage_samples_total", "Per-stage latency sample counts.")

	// Warm-start snapshot cache.
	MetricWarmStartTotal       = counter("kagura_warm_start_total", "Warm-start snapshot cache outcomes.")
	MetricWarmSnapshots        = gauge("kagura_warm_snapshots", "Cached warm-start snapshots.")
	MetricWarmCyclesSavedTotal = counter("kagura_warm_cycles_saved_total", "Simulated cycles skipped by warm-start reuse.")
	MetricWarmSnapshotBytes    = histogram("kagura_warm_snapshot_bytes", "Encoded size of each warm-start snapshot.")

	// Resilience: recovered panics, shedding, degradation, classified errors.
	MetricPanicsRecoveredTotal = counter("kagura_panics_recovered_total", "Compute panics recovered by workers.")
	MetricJobsShedTotal        = counter("kagura_jobs_shed_total", "Submissions rejected by the load-shedding breaker.")
	MetricDegradedRuns         = counter("kagura_degraded_runs", "Warm starts degraded to cold runs.")
	MetricShedding             = gauge("kagura_shedding", "Load-shedding breaker state (1 = open).")
	MetricErrorsTotal          = counter("kagura_errors_total", "Errors by taxonomy code.")

	// In-memory result cache.
	MetricCacheBytes          = gauge("kagura_cache_bytes", "Estimated bytes retained by the memory cache (results and warm-start snapshots).")
	MetricCacheCapacity       = gauge("kagura_cache_capacity", "Memory cache entry bound across results and warm-start snapshots (0 = unbounded).")
	MetricCacheEvictionsTotal = counter("kagura_cache_evictions_total", "Results and warm-start snapshots evicted from the bounded memory cache.")

	// Persistent on-disk store.
	MetricStoreEnabled           = gauge("kagura_store_enabled", "Persistent store tier configured and open (1 = yes).")
	MetricStoreHitsTotal         = counter("kagura_store_hits_total", "Persistent-store reads served, by entry kind.")
	MetricStoreMissesTotal       = counter("kagura_store_misses_total", "Persistent-store reads that fell through to compute, by entry kind.")
	MetricStoreEntries           = gauge("kagura_store_entries", "Entries indexed on disk.")
	MetricStoreBytes             = gauge("kagura_store_bytes", "Bytes retained on disk by indexed entries.")
	MetricStoreWritesTotal       = counter("kagura_store_writes_total", "Entries written to the persistent store.")
	MetricStoreWriteErrorsTotal  = counter("kagura_store_write_errors_total", "Persistent-store writes that failed.")
	MetricStoreEvictionsTotal    = counter("kagura_store_evictions_total", "Entries evicted under the disk budget.")
	MetricStoreCorruptTotal      = counter("kagura_store_corrupt_entries_total", "Corrupt or torn entries quarantined by the persistent store.")
	MetricStorePublishDropsTotal = counter("kagura_store_publish_drops_total", "Asynchronous store writes dropped because the publish queue was full.")

	// Durable intent journal (internal/journal).
	MetricJournalEnabled              = gauge("kagura_journal_enabled", "Intent journal configured and open (1 = yes).")
	MetricJournalAppendsTotal         = counter("kagura_journal_appends_total", "Records appended to the intent journal.")
	MetricJournalAppendErrorsTotal    = counter("kagura_journal_append_errors_total", "Journal appends refused or failed.")
	MetricJournalRotationsTotal       = counter("kagura_journal_rotations_total", "Journal segment compactions.")
	MetricJournalCorruptSegmentsTotal = counter("kagura_journal_corrupt_segments_total", "Journal segments quarantined as unreadable.")
	MetricJournalBytes                = gauge("kagura_journal_bytes", "Live journal segment size on disk.")
	MetricJournalPendingJobs          = gauge("kagura_journal_pending_jobs", "Unsettled job intents in the journal fold.")
	MetricJournalReplayedJobsTotal    = counter("kagura_journal_replayed_jobs_total", "Jobs re-submitted from the journal at startup.")

	// Histograms.
	MetricJobPhaseSeconds    = histogram("kagura_job_phase_seconds", "Job latency by phase.")
	MetricQueueDepthObserved = histogram("kagura_queue_depth_observed", "Queue depth sampled at each enqueue.")
	MetricResultBytes        = histogram("kagura_result_bytes", "Estimated retained size of each cached result.")

	// Campaign engine (internal/campaign). The kagura_campaign prefix is the
	// family split tests key on: these render from the campaign exposition,
	// everything above from the simsvc exposition.
	MetricCampaignsTotal          = counter("kagura_campaigns_total", "Campaigns by terminal outcome.")
	MetricCampaignRunning         = gauge("kagura_campaign_running", "Campaigns currently executing.")
	MetricCampaignPointsSubmitted = counter("kagura_campaign_points_submitted_total", "Sweep points dispatched to the simulation service.")
	MetricCampaignRoundsTotal     = counter("kagura_campaign_rounds_total", "Strategy waves executed.")
	MetricCampaignExportsTotal    = counter("kagura_campaign_exports_total", "Report exports served, by format.")
	MetricCampaignResumedTotal    = counter("kagura_campaign_resumed_total", "Campaigns relaunched from the crash journal.")
)

// KnownMetricNames returns every catalogued family name, in declaration
// order. Tests assert the two expositions together render exactly this set.
func KnownMetricNames() []string {
	names := make([]string, len(catalog))
	for i, f := range catalog {
		names[i] = f.name
	}
	return names
}

// IsCampaignMetric reports whether a catalogued family renders from the
// campaign exposition rather than the simsvc exposition. The prefix matches
// both kagura_campaign_* and kagura_campaigns_total.
func IsCampaignMetric(name string) bool {
	return strings.HasPrefix(name, strings.TrimSuffix(MetricCampaignRunning.name, "_running"))
}
