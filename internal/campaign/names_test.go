package campaign

import (
	"os"
	"strings"
	"testing"

	"kagura/internal/obs"
)

// The campaign exposition and the catalog's campaign families must describe
// the same set — the mirror image of simsvc's TestExpositionMatchesCatalog,
// which excludes these families. Every family renders unconditionally, so
// the zero snapshot is the complete exposition.
func TestCampaignExpositionMatchesCatalog(t *testing.T) {
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
		if !obs.IsCampaignMetric(name) {
			continue
		}
		catalog[name] = true
		if !served[name] {
			t.Errorf("catalogued campaign metric %s is not served by the exposition", name)
		}
	}
	for name := range served {
		if !catalog[name] {
			t.Errorf("served family %s is not in obs.KnownMetricNames", name)
		}
	}
}

// The campaign exposition obeys the same byte-stability contract as the
// simsvc exposition (DESIGN.md §11): fixed family and label order, repeated
// renders byte-identical, and the text validates as a Prometheus payload.
func TestCampaignPrometheusByteStable(t *testing.T) {
	snap := MetricsSnapshot{
		Completed: 3, Failed: 1, Running: 2,
		PointsSubmitted: 64, Rounds: 5,
		ExportsJSON: 4, ExportsCSV: 2,
	}
	first := snap.Prometheus()
	for i := 0; i < 20; i++ {
		if again := snap.Prometheus(); again != first {
			t.Fatalf("campaign exposition unstable:\n--- first\n%s\n--- run %d\n%s", first, i, again)
		}
	}
	for _, want := range []string{
		`kagura_campaigns_total{state="completed"} 3`,
		`kagura_campaigns_total{state="failed"} 1`,
		"kagura_campaign_running 2",
		"kagura_campaign_points_submitted_total 64",
		"kagura_campaign_rounds_total 5",
		`kagura_campaign_exports_total{format="json"} 4`,
		`kagura_campaign_exports_total{format="csv"} 2`,
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("missing %q in:\n%s", want, first)
		}
	}
	if err := obs.ValidateExposition(first); err != nil {
		t.Fatalf("campaign exposition does not validate: %v", err)
	}
}

// TestCampaignPrometheusGolden pins the campaign exposition bytes of a fixed
// snapshot with every counter non-zero and distinct; a change here is a
// deliberate edit of testdata/metrics.prom.
func TestCampaignPrometheusGolden(t *testing.T) {
	snap := MetricsSnapshot{
		Completed: 1, Failed: 2, Running: 3, PointsSubmitted: 4, Rounds: 5,
		ExportsJSON: 7, ExportsCSV: 8, Resumed: 9,
	}
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Prometheus(); got != string(want) {
		t.Fatalf("campaign exposition drifted from testdata/metrics.prom:\n%s", got)
	}
}
