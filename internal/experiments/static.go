package experiments

import (
	"fmt"

	"kagura/internal/analytic"
	"kagura/internal/area"
	"kagura/internal/powertrace"
)

// Fig3Result holds the analytical minimum-ΔR_hit surfaces.
type Fig3Result struct {
	// Subplots are the paper's (a, e, f) combinations.
	Subplots []Fig3Subplot
}

// Fig3Subplot is one (a, e, f) panel.
type Fig3Subplot struct {
	A, E, F float64
	Points  []analytic.Fig3Point
}

// Fig03AnalyticModel reproduces Fig 3: the minimum hit-rate improvement
// needed for compression to pay off, as a function of compression cost and
// miss penalty, for three (a, e, f) panels.
func (l *Lab) Fig03AnalyticModel() (*Fig3Result, error) {
	combos := []struct{ a, e, f float64 }{
		{0.75, 0.5, 0.5},
		{0.50, 0.25, 0.25},
		{0.25, 0.10, 0.10},
	}
	misses := []float64{10, 25, 50, 100}
	out := &Fig3Result{}
	for _, c := range combos {
		out.Subplots = append(out.Subplots, Fig3Subplot{
			A: c.a, E: c.e, F: c.f,
			Points: analytic.Fig3Surface(c.a, c.e, c.f, 1, 10, 7, misses),
		})
	}
	return out, nil
}

// Render implements Renderable.
func (r *Fig3Result) Render() Table {
	t := Table{
		ID:     "fig03",
		Title:  "Minimum ΔR_hit for net energy reduction (Ineq 4)",
		Header: []string{"a/e/f", "E_comp+E_decomp (pJ)", "E_miss (pJ)", "min ΔR_hit"},
		Notes:  []string{"paper: thresholds fall as a/e/f shrink or E_miss grows"},
	}
	for _, sp := range r.Subplots {
		for _, p := range sp.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.2f/%.2f/%.2f", sp.A, sp.E, sp.F),
				fmt.Sprintf("%.1f", p.CompPlusDecomp),
				fmt.Sprintf("%.0f", p.EMiss),
				fmt.Sprintf("%.4f", p.MinDeltaHit),
			})
		}
	}
	return t
}

// Fig11Result summarizes the ambient power traces.
type Fig11Result struct {
	Names []string
	Stats []powertrace.Stats
}

// Fig11PowerTraces reproduces Fig 11: the character of the three ambient
// sources.
func (l *Lab) Fig11PowerTraces() (*Fig11Result, error) {
	out := &Fig11Result{}
	for _, name := range powertrace.Names() {
		tr, err := l.trace(name, l.opts.seeds()[0])
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, name)
		out.Stats = append(out.Stats, tr.Summarize())
	}
	return out, nil
}

// Render implements Renderable.
func (r *Fig11Result) Render() Table {
	t := Table{
		ID:     "fig11",
		Title:  "Ambient power traces (10µs samples)",
		Header: []string{"trace", "mean µW", "p50 µW", "p90 µW", "stddev µW", "stable share"},
		Notes:  []string{"paper: solar/thermal have higher stable-energy shares than RFHome"},
	}
	for i, s := range r.Stats {
		t.Rows = append(t.Rows, []string{
			r.Names[i],
			fmt.Sprintf("%.1f", s.MeanWatts*1e6),
			fmt.Sprintf("%.1f", s.P50*1e6),
			fmt.Sprintf("%.1f", s.P90*1e6),
			fmt.Sprintf("%.1f", s.StdDevWatts*1e6),
			pctU(s.StableShare),
		})
	}
	return t
}

// AreaResult is the hardware-overhead analysis.
type AreaResult struct {
	Overheads []area.Overhead
	Labels    []string
}

// HardwareOverhead reproduces §VIII-A: Kagura's register/counter area versus
// the core.
func (l *Lab) HardwareOverhead() (*AreaResult, error) {
	out := &AreaResult{}
	for _, bits := range []int{1, 2, 3} {
		out.Overheads = append(out.Overheads, area.ForCounterBits(bits))
		out.Labels = append(out.Labels, fmt.Sprintf("%d-bit counter", bits))
	}
	return out, nil
}

// Render implements Renderable.
func (r *AreaResult) Render() Table {
	t := Table{
		ID:     "area",
		Title:  "Hardware overhead (five 32-bit registers + confidence counter, 45nm)",
		Header: []string{"variant", "bits", "area mm²", "core share"},
		Notes:  []string{"paper: 162 bits, 0.000796 mm², 0.14% of the 0.538 mm² core"},
	}
	for i, o := range r.Overheads {
		t.Rows = append(t.Rows, []string{
			r.Labels[i], fmt.Sprintf("%d", o.Bits),
			fmt.Sprintf("%.6f", o.AreaMM2), fmt.Sprintf("%.2f%%", o.CorePercent),
		})
	}
	return t
}
