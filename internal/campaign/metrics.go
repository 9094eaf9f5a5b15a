package campaign

import (
	"strings"
	"sync"

	"kagura/internal/obs"
)

// Metrics holds the campaign-engine counters behind the kagura_campaign_*
// exposition families (typed values of the obs catalog). Every method is nil-safe so the
// Runner works without metrics wired.
type Metrics struct {
	mu          sync.Mutex
	completed   int64
	failed      int64
	running     int64
	points      int64
	rounds      int64
	exportsJSON int64
	exportsCSV  int64
	resumed     int64
}

func (m *Metrics) campaignStarted() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
}

func (m *Metrics) campaignCompleted() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.running--
	m.completed++
	m.mu.Unlock()
}

// campaignFailed books a terminal failure. Validation rejections count here
// too — they never incremented running, so the gauge is only decremented for
// campaigns that started.
func (m *Metrics) campaignFailed() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.running > 0 {
		m.running--
	}
	m.failed++
	m.mu.Unlock()
}

func (m *Metrics) pointsSubmitted(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.points += int64(n)
	m.mu.Unlock()
}

func (m *Metrics) roundFinished() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.rounds++
	m.mu.Unlock()
}

// campaignResumed books one campaign relaunched from the crash journal.
func (m *Metrics) campaignResumed() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.resumed++
	m.mu.Unlock()
}

// ExportCounted books one successful report export ("json" or "csv").
func (m *Metrics) ExportCounted(format string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if format == "csv" {
		m.exportsCSV++
	} else {
		m.exportsJSON++
	}
	m.mu.Unlock()
}

// MetricsSnapshot is a point-in-time view of the campaign counters.
type MetricsSnapshot struct {
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Running         int64 `json:"running"`
	PointsSubmitted int64 `json:"pointsSubmitted"`
	Rounds          int64 `json:"rounds"`
	ExportsJSON     int64 `json:"exportsJSON"`
	ExportsCSV      int64 `json:"exportsCSV"`
	Resumed         int64 `json:"resumed"`
}

// Snapshot returns the current counters (zero values on a nil receiver).
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		Completed:       m.completed,
		Failed:          m.failed,
		Running:         m.running,
		PointsSubmitted: m.points,
		Rounds:          m.rounds,
		ExportsJSON:     m.exportsJSON,
		ExportsCSV:      m.exportsCSV,
		Resumed:         m.resumed,
	}
}

// Prometheus renders the snapshot in the Prometheus text exposition format.
// Byte-stable like the simsvc exposition: fixed family order, every label
// value enumerated, never a map range (DESIGN.md §11).
func (s MetricsSnapshot) Prometheus() string {
	var b strings.Builder
	obs.MetricCampaignsTotal.Header(&b)
	obs.MetricCampaignsTotal.Sample(&b, `state="completed"`, s.Completed)
	obs.MetricCampaignsTotal.Sample(&b, `state="failed"`, s.Failed)
	obs.MetricCampaignRunning.Single(&b, s.Running)
	obs.MetricCampaignPointsSubmitted.Single(&b, s.PointsSubmitted)
	obs.MetricCampaignRoundsTotal.Single(&b, s.Rounds)
	obs.MetricCampaignExportsTotal.Header(&b)
	obs.MetricCampaignExportsTotal.Sample(&b, `format="json"`, s.ExportsJSON)
	obs.MetricCampaignExportsTotal.Sample(&b, `format="csv"`, s.ExportsCSV)
	obs.MetricCampaignResumedTotal.Single(&b, s.Resumed)
	return b.String()
}
