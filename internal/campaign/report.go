package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"kagura/internal/area"
	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/simsvc"
)

// ReportSchemaVersion stamps exported reports; bump on breaking changes.
const ReportSchemaVersion = 1

// PointMetrics is the per-point slice of a result the campaign report keeps:
// the three Pareto dimensions (energy, forward progress, area), the raw
// counters behind them, and comparisons against the campaign baseline when
// one was simulated.
type PointMetrics struct {
	// EnergyJ is total consumed energy (joules) — Pareto: minimize.
	EnergyJ float64 `json:"energyJ"`
	// Progress is committed instructions per simulated second — Pareto:
	// maximize.
	Progress float64 `json:"progress"`
	// AreaMM2 is the controller's hardware overhead (mm² at 45nm; zero
	// without Kagura) — Pareto: minimize.
	AreaMM2 float64 `json:"areaMM2"`

	ExecSeconds     float64 `json:"execSeconds"`
	Committed       int64   `json:"committed"`
	PowerCycles     int64   `json:"powerCycles"`
	Compressions    int64   `json:"compressions"`
	KaguraRMEntries int64   `json:"kaguraRMEntries,omitempty"`

	// SpeedupVsBaseline and EnergyReductionVsBaseline compare against the
	// spec's Baseline run (absent without one).
	SpeedupVsBaseline         *float64 `json:"speedupVsBaseline,omitempty"`
	EnergyReductionVsBaseline *float64 `json:"energyReductionVsBaseline,omitempty"`
}

// PointReport is one evaluated point.
type PointReport struct {
	// Index is the point's position in the induced space (stable across
	// strategies: a halving run and a grid run report the same index for the
	// same parameter assignment).
	Index int `json:"index"`
	// Round is the 1-based wave that evaluated the point.
	Round int `json:"round"`
	// Params are the axis assignments, in axis order.
	Params []ParamValue `json:"params"`
	// Metrics is the measured outcome.
	Metrics PointMetrics `json:"metrics"`
}

// Report is a finished campaign: the spec echo, every evaluated point in
// index order, the objective's best point, and the Pareto frontier over
// (energy ↓, progress ↑, area ↓). It is a pure function of (spec, results) —
// no timestamps, job IDs, or cache provenance — which is what makes exports
// byte-stable across runs and worker counts.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	Name          string `json:"name"`
	Strategy      string `json:"strategy"`
	Mode          string `json:"mode"`
	Seed          uint64 `json:"seed"`

	Objective Objective `json:"objective"`
	Axes      []Axis    `json:"axes"`

	// TotalPoints is the size of the induced space; Submitted counts the
	// points the strategy actually dispatched; Rounds counts its waves.
	TotalPoints int `json:"totalPoints"`
	Submitted   int `json:"submitted"`
	Rounds      int `json:"rounds"`

	// Baseline holds the baseline run's metrics when the spec named one.
	Baseline *PointMetrics `json:"baseline,omitempty"`

	// Points lists every evaluated point, ascending by index.
	Points []PointReport `json:"points"`

	// BestIndex is the evaluated point optimizing the objective (ties break
	// to the lowest index).
	BestIndex int `json:"bestIndex"`

	// Pareto lists the indices of non-dominated points, ascending. A point
	// dominates another when it is no worse on all three dimensions and
	// strictly better on at least one.
	Pareto []int `json:"pareto"`
}

// pointMetrics distills one simulation result.
func pointMetrics(sp simsvc.RunSpec, res, baseline *ehs.Result) PointMetrics {
	m := PointMetrics{
		EnergyJ:         res.Energy.Total(),
		ExecSeconds:     res.ExecSeconds,
		Committed:       res.Committed,
		PowerCycles:     res.PowerCycles,
		Compressions:    res.Compressions,
		KaguraRMEntries: res.KaguraRMEntries,
	}
	if res.ExecSeconds > 0 {
		m.Progress = float64(res.Committed) / res.ExecSeconds
	}
	if norm, err := sp.Normalize(); err == nil && norm.Kagura {
		bits := norm.CounterBits
		if bits == 0 {
			bits = 2 // the paper default materialized by the controller
		}
		m.AreaMM2 = area.ForCounterBits(bits).AreaMM2
	}
	if baseline != nil {
		speedup := res.Speedup(baseline)
		saving := res.EnergyReduction(baseline)
		m.SpeedupVsBaseline = &speedup
		m.EnergyReductionVsBaseline = &saving
	}
	return m
}

// buildReport assembles the deterministic report from the engine's indexed
// results.
func buildReport(spec *Spec, space *space, results *resultSet, rounds []int, baseline *ehs.Result, submitted, waves int) *Report {
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Name:          spec.Name,
		Strategy:      spec.Strategy,
		Mode:          spec.Mode,
		Seed:          spec.Seed,
		Objective:     spec.Objective,
		Axes:          spec.Axes,
		TotalPoints:   space.total(),
		Submitted:     submitted,
		Rounds:        waves,
		BestIndex:     -1,
	}
	if baseline != nil && spec.Baseline != nil {
		m := pointMetrics(*spec.Baseline, baseline, nil)
		rep.Baseline = &m
	}
	for i, res := range results.res {
		if res == nil {
			continue
		}
		sp, _ := space.runSpec(i)
		rep.Points = append(rep.Points, PointReport{
			Index:   i,
			Round:   rounds[i],
			Params:  space.params(i),
			Metrics: pointMetrics(sp, res, baseline),
		})
	}
	if best, ok := results.best(spec.Objective); ok {
		rep.BestIndex = best
	}
	rep.Pareto = paretoFrontier(rep.Points)
	return rep
}

// dominates reports whether a is no worse than b on every Pareto dimension
// and strictly better on at least one (energy ↓, progress ↑, area ↓).
func dominates(a, b PointMetrics) bool {
	if a.EnergyJ > b.EnergyJ || a.Progress < b.Progress || a.AreaMM2 > b.AreaMM2 {
		return false
	}
	return a.EnergyJ < b.EnergyJ || a.Progress > b.Progress || a.AreaMM2 < b.AreaMM2
}

// paretoFrontier returns the indices of non-dominated points, ascending.
// Quadratic over evaluated points — bounded by MaxPoints — and order-free:
// dominance is a pure pairwise comparison, so the frontier depends only on
// the point set.
func paretoFrontier(points []PointReport) []int {
	frontier := []int{}
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && dominates(q.Metrics, p.Metrics) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, p.Index)
		}
	}
	return frontier
}

// ExportJSON renders the report as indented JSON with a trailing newline.
// Byte-stable: struct field order is fixed, floats use Go's shortest
// round-trip formatting, and the report carries no run-time provenance.
func (r *Report) ExportJSON() ([]byte, error) {
	if err := faultinject.CampaignExport.FireErr(); err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// csvFloat renders a float in shortest round-trip form, matching the JSON
// export's number formatting.
func csvFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// csvValue renders one raw axis value for a CSV cell: strings bare, other
// JSON values compact. Axis values are validated spec fields (names,
// numbers, booleans), so no quoting is needed.
func csvValue(raw json.RawMessage) string {
	var s string
	if err := strictUnmarshal(raw, &s); err == nil {
		return s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return buf.String()
}

// ExportCSV renders the evaluated points as CSV: one column per axis (star
// points leave un-varied axes empty), the metric columns, and best/pareto
// membership flags. Same determinism contract as ExportJSON.
func (r *Report) ExportCSV() ([]byte, error) {
	if err := faultinject.CampaignExport.FireErr(); err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("index,round")
	for _, ax := range r.Axes {
		b.WriteString(",")
		b.WriteString(ax.Param)
	}
	b.WriteString(",energy_j,progress_ips,area_mm2,exec_seconds,committed,power_cycles,compressions,rm_entries,speedup_vs_baseline,energy_reduction_vs_baseline,best,pareto\n")
	pareto := make(map[int]bool, len(r.Pareto))
	for _, i := range r.Pareto {
		pareto[i] = true
	}
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%d,%d", p.Index, p.Round)
		for _, ax := range r.Axes {
			b.WriteString(",")
			for _, pv := range p.Params {
				if pv.Param == ax.Param {
					b.WriteString(csvValue(pv.Value))
					break
				}
			}
		}
		m := p.Metrics
		fmt.Fprintf(&b, ",%s,%s,%s,%s,%d,%d,%d,%d",
			csvFloat(m.EnergyJ), csvFloat(m.Progress), csvFloat(m.AreaMM2),
			csvFloat(m.ExecSeconds), m.Committed, m.PowerCycles,
			m.Compressions, m.KaguraRMEntries)
		b.WriteString(",")
		if m.SpeedupVsBaseline != nil {
			b.WriteString(csvFloat(*m.SpeedupVsBaseline))
		}
		b.WriteString(",")
		if m.EnergyReductionVsBaseline != nil {
			b.WriteString(csvFloat(*m.EnergyReductionVsBaseline))
		}
		best := 0
		if p.Index == r.BestIndex {
			best = 1
		}
		inPareto := 0
		if pareto[p.Index] {
			inPareto = 1
		}
		fmt.Fprintf(&b, ",%d,%d\n", best, inPareto)
	}
	return []byte(b.String()), nil
}
