package experiments

import (
	"fmt"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
)

// SweepResult is the generic shape of the sensitivity studies: one row per
// swept setting, each with the mean speedup of one or more configurations
// over a reference.
type SweepResult struct {
	ID, Title string
	// Configs names the result columns.
	Configs []string
	// Labels names the swept settings (rows).
	Labels []string
	// Speedups[row][col] is the mean speedup over the experiment's baseline.
	Speedups [][]float64
	Notes    []string
}

// Render implements Renderable.
func (r *SweepResult) Render() Table {
	t := Table{ID: r.ID, Title: r.Title, Header: append([]string{"setting"}, r.Configs...), Notes: r.Notes}
	for i, label := range r.Labels {
		row := []string{label}
		for _, v := range r.Speedups[i] {
			row = append(row, pct(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// cell is one value of a sweep: variant's speedup over base, averaged over
// the lab's seeds per app and then over the subset apps, on trace ("" ⇒ the
// lab's trace).
type cell struct {
	trace         string
	base, variant setup
}

// overBase is the cell of variant against the plain baseline.
func overBase(id string, fn configFn) cell {
	return cell{base: baseline, variant: setup{id, fn}}
}

// kaguraOver is the cell of ACC+Kagura against its own baseline, both built
// on fn; tag names the setting in both ids.
func kaguraOver(tag string, fn configFn) cell {
	return cell{base: setup{"base:" + tag, fn}, variant: setup{"kagura:" + tag, then(fn, cfgKagura)}}
}

// row is one swept setting: its label and one cell per result column.
type row struct {
	label string
	cells []cell
}

// sweep fills out's rows. Every cell's simulations run in one fan-out, then
// each cell averages: the speedup summed over seeds and divided per app,
// then the mean over apps.
func (l *Lab) sweep(out *SweepResult, rows []row) (*SweepResult, error) {
	apps := l.opts.subsetNames()
	trace := func(c cell) string {
		if c.trace == "" {
			return l.opts.traceName()
		}
		return c.trace
	}
	p := l.newPlan()
	for _, r := range rows {
		for _, c := range r.cells {
			p.add(apps, trace(c), c.base, c.variant)
		}
	}
	if err := p.run(); err != nil {
		return nil, err
	}
	for _, r := range rows {
		speedups := make([]float64, len(r.cells))
		for i, c := range r.cells {
			xs := make([]float64, len(apps))
			for j, app := range apps {
				xs[j] = p.speedup(app, trace(c), c.base, c.variant)
			}
			speedups[i] = mean(xs)
		}
		out.Labels = append(out.Labels, r.label)
		out.Speedups = append(out.Speedups, speedups)
	}
	return out, nil
}

// cacheBytes sets both caches to size bytes.
func cacheBytes(size int) configFn {
	return func(c ehs.Config) ehs.Config {
		c.ICache.SizeBytes = size
		c.DCache.SizeBytes = size
		return c
	}
}

// capacitance sets the energy buffer to uf microfarads.
func capacitance(uf float64) configFn {
	return func(c ehs.Config) ehs.Config {
		c.Capacitor = c.Capacitor.WithCapacitance(uf * 1e-6)
		return c
	}
}

// Fig01CacheSizeDilemma reproduces Fig 1: baseline (no compression) speedup
// across cache sizes, normalized to the 256B configuration. Small caches
// thrash; large caches leak the capacitor dry.
func (l *Lab) Fig01CacheSizeDilemma() (*SweepResult, error) {
	ref := setup{"base:size256", cfgBase} // default is 256B
	var rows []row
	for _, size := range []int{128, 256, 512, 1024, 2048, 4096} {
		variant := setup{fmt.Sprintf("base:size%d", size), cacheBytes(size)}
		rows = append(rows, row{fmt.Sprintf("%dB", size), []cell{{base: ref, variant: variant}}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig01",
		Title:   "Baseline speedup vs cache size (normalized to 256B ICache+DCache)",
		Configs: []string{"no-compressor"},
		Notes:   []string{"paper: performance peaks at 256B; both smaller (misses) and larger (leakage) lose"},
	}, rows)
}

// Fig17Result relates Kagura's gain to arithmetic intensity.
type Fig17Result struct {
	Apps      []string
	Intensity []float64
	Speedup   []float64
}

// Fig17ArithmeticIntensity reproduces Fig 17: ACC+Kagura speedup versus
// arithmetic intensity for six applications spanning the range.
func (l *Lab) Fig17ArithmeticIntensity() (*Fig17Result, error) {
	names := []string{"jpegd", "jpeg", "gsm", "susan", "patricia", "strings"}
	trace := l.opts.traceName()
	p, err := l.simulate(names, trace, baseline, withKag)
	if err != nil {
		return nil, err
	}
	out := &Fig17Result{}
	for _, name := range names {
		app, err := l.app(name)
		if err != nil {
			return nil, err
		}
		out.Apps = append(out.Apps, name)
		out.Intensity = append(out.Intensity, app.ArithmeticIntensity())
		out.Speedup = append(out.Speedup, p.speedup(name, trace, baseline, withKag))
	}
	return out, nil
}

// Render implements Renderable.
func (r *Fig17Result) Render() Table {
	t := Table{
		ID:     "fig17",
		Title:  "ACC+Kagura speedup vs arithmetic intensity",
		Header: []string{"app", "arith/mem", "speedup"},
		Notes:  []string{"paper: gains fall as arithmetic intensity rises (jpegd highest, strings lowest)"},
	}
	for i := range r.Apps {
		t.Rows = append(t.Rows, []string{
			r.Apps[i], fmt.Sprintf("%.2f", r.Intensity[i]), pct(r.Speedup[i]),
		})
	}
	return t
}

// Fig19DesignsAndTriggers reproduces Fig 19: ACC and ACC+Kagura (memory- and
// voltage-triggered) on the three EHS designs, each normalized to that
// design's compressor-free configuration.
func (l *Lab) Fig19DesignsAndTriggers() (*SweepResult, error) {
	voltage := tunedKagura(func(kc *kagura.Config) { kc.Trigger = kagura.TriggerVoltage })
	var rows []row
	for _, design := range ehs.Designs() {
		name := design.String()
		onDesign := func(c ehs.Config) ehs.Config {
			c.Design = design
			return c
		}
		base := setup{"base:" + name, onDesign}
		rows = append(rows, row{name, []cell{
			{base: base, variant: setup{"acc:" + name, then(onDesign, cfgACC)}},
			{base: base, variant: setup{"kagura-mem:" + name, then(onDesign, cfgKagura)}},
			{base: base, variant: setup{"kagura-vol:" + name, then(onDesign, voltage)}},
		}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig19",
		Title:   "Trigger strategies across EHS designs (speedup over each design's own baseline)",
		Configs: []string{"+ACC", "+ACC+Kagura(mem)", "+ACC+Kagura(vol)"},
		Notes: []string{
			"paper: mem trigger gains 4.74/5.54/3.15% on NVSRAMCache/NvMR/SweepCache;",
			"vol trigger matches on NVSRAMCache but degrades monitor-free designs",
		},
	}, rows)
}

// Fig20CacheManagements reproduces Fig 20: EDBP (cache decay dead-block
// prediction) and IPEX (intermittence-aware prefetching) alone and combined
// with ACC+Kagura, over the plain baseline.
func (l *Lab) Fig20CacheManagements() (*SweepResult, error) {
	const decayCycles = 3000
	var rows []row
	for _, v := range []struct {
		label string
		alone configFn
	}{
		{"EDBP", func(c ehs.Config) ehs.Config {
			c.DecayInterval = decayCycles
			return c
		}},
		{"IPEX", func(c ehs.Config) ehs.Config {
			c.Prefetch = true
			return c
		}},
	} {
		rows = append(rows, row{v.label, []cell{
			overBase(v.label, v.alone),
			overBase(v.label+"+kagura", then(v.alone, cfgKagura)),
		}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig20",
		Title:   "Kagura combined with other intermittence-aware cache managements",
		Configs: []string{"alone", "+ACC+Kagura"},
		Notes:   []string{"paper: EDBP 5.32% → 12.14% with ACC+Kagura; IPEX 12.73% → 18.37%"},
	}, rows)
}

// Fig21AdaptationSchemes reproduces Fig 21: the four R_thres adaptation
// policies.
func (l *Lab) Fig21AdaptationSchemes() (*SweepResult, error) {
	var rows []row
	for _, p := range []kagura.Policy{kagura.AIMD, kagura.MIAD, kagura.AIAD, kagura.MIMD} {
		fn := tunedKagura(func(kc *kagura.Config) { kc.Policy = p })
		rows = append(rows, row{p.String(), []cell{overBase("kagura:"+p.String(), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig21",
		Title:   "R_thres adaptation schemes (ACC+Kagura speedup over baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: AIMD best; multiplicative increase suppresses useful compressions"},
	}, rows)
}

// Fig22IncreaseStep reproduces Fig 22: sensitivity to the additive increase
// step of R_thres.
func (l *Lab) Fig22IncreaseStep() (*SweepResult, error) {
	var rows []row
	for _, step := range []float64{0.05, 0.10, 0.15, 0.20} {
		fn := tunedKagura(func(kc *kagura.Config) { kc.IncreaseStep = step })
		rows = append(rows, row{fmt.Sprintf("%.0f%%", step*100), []cell{overBase(fmt.Sprintf("kagura:step%.2f", step), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig22",
		Title:   "R_thres additive increase step",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: 10% balances energy saving and compression efficiency"},
	}, rows)
}

// codecRows are Fig 23's rows for codecs: ACC and ACC+Kagura with each.
func codecRows(codecs []compress.Codec) []row {
	var rows []row
	for _, codec := range codecs {
		acc := func(c ehs.Config) ehs.Config { return c.WithACC(codec) }
		kag := func(c ehs.Config) ehs.Config { return c.WithACC(codec).WithKagura(kagura.DefaultConfig()) }
		rows = append(rows, row{codec.Name(), []cell{
			overBase("acc:"+codec.Name(), acc),
			overBase("kagura:"+codec.Name(), kag),
		}})
	}
	return rows
}

// Fig23Compressors reproduces Fig 23: ACC and ACC+Kagura with each of the
// four compression algorithms.
func (l *Lab) Fig23Compressors() (*SweepResult, error) {
	return l.sweep(&SweepResult{
		ID:      "fig23",
		Title:   "Compression algorithms",
		Configs: []string{"+ACC", "+ACC+Kagura"},
		Notes:   []string{"paper: Kagura improves every algorithm (BDI 0.0022→4.74%, FPC 1.50→4.40%, C-Pack 0.99→4.10%, DZC 1.00→2.41%)"},
	}, codecRows(compress.All()))
}

// Fig24CacheSizes reproduces Fig 24: ACC+Kagura across cache sizes,
// normalized to the 128B compressor-free baseline.
func (l *Lab) Fig24CacheSizes() (*SweepResult, error) {
	ref := setup{"base:size128", cacheBytes(128)}
	var rows []row
	for _, size := range []int{128, 256, 512, 1024, 2048, 4096} {
		rows = append(rows, row{fmt.Sprintf("%dB", size), []cell{
			{base: ref, variant: setup{fmt.Sprintf("base:size%d", size), cacheBytes(size)}},
			{base: ref, variant: setup{fmt.Sprintf("kagura:size%d", size), then(cacheBytes(size), cfgKagura)}},
		}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig24",
		Title:   "Cache sizes (speedup over 128B compressor-free baseline)",
		Configs: []string{"no-compressor", "+ACC+Kagura"},
		Notes:   []string{"paper: Kagura helps at every size, most with small caches"},
	}, rows)
}

// Fig25CacheWays reproduces Fig 25: associativity from direct-mapped to
// 8-way at the default 256B size.
func (l *Lab) Fig25CacheWays() (*SweepResult, error) {
	var rows []row
	for _, ways := range []int{1, 2, 4, 8} {
		fn := func(c ehs.Config) ehs.Config {
			c.ICache.Ways = ways
			c.DCache.Ways = ways
			return c
		}
		rows = append(rows, row{fmt.Sprintf("%d-way", ways), []cell{kaguraOver(fmt.Sprintf("ways%d", ways), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig25",
		Title:   "Cache associativity (ACC+Kagura speedup over same-geometry baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: consistent gains from direct-mapped to 8-way (4.74–5.73%)"},
	}, rows)
}

// Fig26BlockSizes reproduces Fig 26: cache block sizes 16–64B.
func (l *Lab) Fig26BlockSizes() (*SweepResult, error) {
	var rows []row
	for _, bs := range []int{16, 32, 64} {
		fn := func(c ehs.Config) ehs.Config {
			c.ICache.BlockSize = bs
			c.DCache.BlockSize = bs
			return c
		}
		rows = append(rows, row{fmt.Sprintf("%dB", bs), []cell{kaguraOver(fmt.Sprintf("block%d", bs), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig26",
		Title:   "Cache block sizes (ACC+Kagura speedup over same-geometry baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: good performance maintained from 16B to 64B blocks"},
	}, rows)
}

// Fig27MemorySizes reproduces Fig 27: main-memory capacities 2–32MB.
func (l *Lab) Fig27MemorySizes() (*SweepResult, error) {
	var rows []row
	for _, mb := range []int{2, 4, 8, 16, 32} {
		fn := func(c ehs.Config) ehs.Config {
			c.NVM.SizeBytes = mb << 20
			return c
		}
		rows = append(rows, row{fmt.Sprintf("%dMB", mb), []cell{kaguraOver(fmt.Sprintf("mem%d", mb), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig27",
		Title:   "Main memory sizes (ACC+Kagura speedup over same-size baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: gains shrink slightly as NVM grows (4.22% at 2MB → 3.69% at 32MB)"},
	}, rows)
}

// Fig28MemoryTypes reproduces Fig 28: ReRAM, PCM, and STT-RAM main memories.
func (l *Lab) Fig28MemoryTypes() (*SweepResult, error) {
	var rows []row
	for _, kind := range []nvm.Kind{nvm.ReRAM, nvm.PCM, nvm.STTRAM} {
		fn := func(c ehs.Config) ehs.Config {
			c.NVM.Params = nvm.ParamsFor(kind)
			return c
		}
		rows = append(rows, row{kind.String(), []cell{kaguraOver(kind.String(), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig28",
		Title:   "NVM technologies (ACC+Kagura speedup over same-technology baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: promising speedups on every NVM (4.67% PCM, 4.68% STT-RAM)"},
	}, rows)
}

// Fig29CapacitorSizes reproduces Fig 29: energy-buffer capacitances from
// 0.47µF to 1000µF, each configuration's Kagura gain over the same-capacitor
// baseline.
func (l *Lab) Fig29CapacitorSizes() (*SweepResult, error) {
	var rows []row
	for _, uf := range []float64{0.47, 1, 4.7, 10, 100} {
		rows = append(rows, row{fmt.Sprintf("%.2fµF", uf), []cell{kaguraOver(fmt.Sprintf("cap%.2f", uf), capacitance(uf))}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig29",
		Title:   "Capacitor sizes (ACC+Kagura speedup over same-capacitor baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: benefit peaks around the default 4.7µF; tiny capacitors give compression few chances, huge ones few outages"},
	}, rows)
}

// Fig30PowerTraces reproduces Fig 30: the three ambient sources.
func (l *Lab) Fig30PowerTraces() (*SweepResult, error) {
	var rows []row
	for _, trace := range []string{"RFHome", "Solar", "Thermal"} {
		rows = append(rows, row{trace, []cell{{trace: trace, base: baseline, variant: withKag}}})
	}
	return l.sweep(&SweepResult{
		ID:      "fig30",
		Title:   "Ambient power traces (ACC+Kagura speedup over same-trace baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: 4.74% RFHome, 4.58% solar, 4.54% thermal"},
	}, rows)
}

// TableIIHistoryDepth reproduces Table II: the number of past power cycles
// feeding the memory-operation estimate (weighted average).
func (l *Lab) TableIIHistoryDepth() (*SweepResult, error) {
	var rows []row
	for _, depth := range []int{1, 2, 3, 4} {
		fn := tunedKagura(func(kc *kagura.Config) { kc.HistoryDepth = depth })
		rows = append(rows, row{fmt.Sprintf("%d", depth), []cell{overBase(fmt.Sprintf("kagura:hist%d", depth), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "table2",
		Title:   "Power cycles used for memory-operation estimation",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: 1 cycle is best (4.74%), falling to 2.60% with 4 cycles"},
	}, rows)
}

// TableIIIResult is the capacitor-leakage share study.
type TableIIIResult struct {
	CapsUF []float64
	Shares []float64
}

// TableIIICapLeakage reproduces Table III: the share of total energy lost to
// capacitor leakage across buffer sizes.
func (l *Lab) TableIIICapLeakage() (*TableIIIResult, error) {
	apps := l.opts.subsetNames()
	trace := l.opts.traceName()
	caps := []float64{0.47, 1, 4.7, 10, 100, 1000}
	setups := make([]setup, len(caps))
	for i, uf := range caps {
		setups[i] = setup{fmt.Sprintf("base:cap%.2f", uf), capacitance(uf)}
	}
	p, err := l.simulate(apps, trace, setups...)
	if err != nil {
		return nil, err
	}
	out := &TableIIIResult{CapsUF: caps}
	for _, s := range setups {
		var shares []float64
		for _, app := range apps {
			for _, seed := range l.opts.seeds() {
				res := p.result(app, trace, seed, s)
				shares = append(shares, res.CapacitorLeakJoules/res.Energy.Total())
			}
		}
		out.Shares = append(out.Shares, mean(shares))
	}
	return out, nil
}

// Render implements Renderable.
func (r *TableIIIResult) Render() Table {
	t := Table{
		ID:     "table3",
		Title:  "Capacitor leakage share of total energy",
		Header: []string{"capacitance", "leakage share"},
		Notes:  []string{"paper: 0.001% at 0.47µF rising to 5.91% at 1000µF"},
	}
	for i := range r.CapsUF {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2fµF", r.CapsUF[i]), fmt.Sprintf("%.3f%%", 100*r.Shares[i]),
		})
	}
	return t
}

// TableIVCounterBits reproduces Table IV: confidence counter widths.
func (l *Lab) TableIVCounterBits() (*SweepResult, error) {
	var rows []row
	for _, bits := range []int{1, 2, 3} {
		fn := tunedKagura(func(kc *kagura.Config) { kc.CounterBits = bits })
		rows = append(rows, row{fmt.Sprintf("%d bits", bits), []cell{overBase(fmt.Sprintf("kagura:bits%d", bits), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "table4",
		Title:   "Confidence counter width",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: 2 bits best (4.74%) vs 3.98% (1 bit) and 4.21% (3 bits)"},
	}, rows)
}
