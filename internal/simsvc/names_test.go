package simsvc

import (
	"os"
	"strings"
	"testing"

	"kagura/internal/journal"
	"kagura/internal/obs"
	"kagura/internal/store"
)

// The exposition and the catalog (obs.KnownMetricNames) must describe the
// same set of families: a family served but not catalogued was written from
// a string instead of a catalog value, and a catalogued family never served
// is a dashboard pointed at nothing. Every family renders unconditionally —
// zeros when idle — so the zero snapshot is the complete exposition. The
// catalog's campaign families render from the campaign exposition instead
// (internal/campaign has the mirror-image test), so they are excluded here.
func TestExpositionMatchesCatalog(t *testing.T) {
	text := MetricsSnapshot{}.Prometheus()
	served := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, _, ok := strings.Cut(rest, " ")
		if !ok {
			t.Fatalf("malformed TYPE line %q", line)
		}
		if served[name] {
			t.Fatalf("family %s declares TYPE twice", name)
		}
		served[name] = true
	}
	catalog := make(map[string]bool)
	for _, name := range obs.KnownMetricNames() {
		if obs.IsCampaignMetric(name) {
			continue
		}
		catalog[name] = true
		if !served[name] {
			t.Errorf("catalogued metric %s is not served by the exposition", name)
		}
	}
	for name := range served {
		if !catalog[name] {
			t.Errorf("served family %s is not in obs.KnownMetricNames", name)
		}
	}
}

// goldenSnapshot is a fixed snapshot that exercises every rendering branch:
// each counter non-zero and distinct, non-empty histograms, the store and
// journal tiers enabled, the breaker open, and one error code set.
func goldenSnapshot() MetricsSnapshot {
	hist := func(bounds []float64, values ...float64) obs.HistogramSnapshot {
		h := obs.NewHistogram(bounds...)
		for _, v := range values {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	return MetricsSnapshot{
		JobsRun: 1, JobsCached: 2, JobsFailed: 3, JobsCanceled: 4,
		QueueDepth: 5, Workers: 6, CachedKeys: 7,
		WarmStartHits: 8, WarmStartMisses: 9, WarmSnapshots: 10, WarmCyclesSaved: 11,
		QueueSecondsTotal: 0.125, QueueSamples: 12, RunSecondsTotal: 2.5, RunSamples: 13,
		PanicsRecovered: 14, JobsShed: 16, DegradedRuns: 17,
		Shedding:   true,
		Errors:     map[string]int64{string(CodeTimeout): 18},
		CacheBytes: 19, CacheCapacity: 20, CacheEvictions: 21,
		StoreEnabled: true,
		Store: store.MetricsSnapshot{
			Entries: 22, Bytes: 23, ResultHits: 24, ResultMisses: 25,
			CheckpointHits: 26, CheckpointMisses: 27, Writes: 28, WriteErrors: 29,
			Evictions: 30, CorruptEntries: 31,
		},
		StorePublishDrops: 32,
		JournalEnabled:    true,
		Journal: journal.MetricsSnapshot{
			Appends: 33, AppendErrors: 34, Rotations: 35, CorruptSegments: 36,
			SizeBytes: 37, PendingJobs: 38,
		},
		JournalReplayedJobs: 39,
		QueueSeconds:        hist([]float64{0.001, 0.01, 0.1}, 0.0005, 0.05, 3),
		RunSeconds:          hist([]float64{0.01, 1}, 0.02, 0.5, 0.75),
		QueueDepths:         hist([]float64{1, 4, 16}, 0, 2, 2, 40),
		ResultBytes:         hist([]float64{512, 4096}, 400, 600),
		SnapshotBytes:       hist([]float64{1 << 16, 1 << 20}, 70000),
	}
}

// TestPrometheusGolden pins the /metrics bytes of a fixed snapshot: family
// order, HELP text, label spelling and number formatting. Dashboards and the
// serve benchmark's output check parse these lines, so any change here is a
// deliberate edit of testdata/metrics.prom.
func TestPrometheusGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenSnapshot().Prometheus(); got != string(want) {
		t.Fatalf("exposition drifted from testdata/metrics.prom:\n%s", got)
	}
}
