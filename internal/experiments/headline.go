package experiments

import (
	"context"
	"fmt"
	"math"

	"kagura/internal/ehs"
	"kagura/internal/simsvc"
)

// AppRow is one application's headline comparison (Fig 13 and friends).
type AppRow struct {
	App string
	// Speedups over the compressor-free NVSRAMCache baseline.
	ACCSpeedup, KaguraSpeedup, IdealSpeedup float64
	// Energy reductions vs. the baseline total (positive = saves energy).
	ACCEnergySave, KaguraEnergySave float64
	// CommittedIncrease* is the growth of average committed instructions per
	// power cycle vs. baseline (bottom of Fig 13).
	CommittedIncreaseACC, CommittedIncreaseKagura float64
	// CompressionCut is the fraction of ACC's compression operations that
	// Kagura eliminates (Fig 18).
	CompressionCut float64
	// Miss rates (averaged over seeds) for Fig 15.
	MissBase, MissACC, MissKagura    float64 // DCache
	IMissBase, IMissACC, IMissKagura float64 // ICache
	// Energy breakdowns normalized to baseline total (Fig 16): base, ACC,
	// Kagura.
	Breakdown [3]ehs.EnergyBreakdown
}

// Fig13Result holds the headline per-app comparison.
type Fig13Result struct {
	Rows []AppRow
	// Means across applications.
	MeanACC, MeanKagura, MeanIdeal        float64
	MeanACCEnergy, MeanKaguraEnergy       float64
	MeanCommittedACC, MeanCommittedKagura float64
}

// headline computes the shared per-app comparison used by Figs 13/15/16/18.
func (l *Lab) headline() (*Fig13Result, error) {
	trace := l.opts.traceName()
	apps, seeds := l.opts.appNames(), l.opts.seeds()
	p := l.newPlan()
	p.add(apps, trace, baseline, withACC)
	// One job per (app, seed) runs the ACC+Kagura cell and then the ideal
	// oracle recorded on it.
	oracles := make([]oracleRun, len(apps)*len(seeds))
	var chains []func() error
	for i, name := range apps {
		for j, seed := range seeds {
			slot := &oracles[i*len(seeds)+j]
			chains = append(chains, func() (err error) {
				*slot, err = l.kaguraAndIdeal(name, trace, seed)
				return err
			})
		}
	}
	if err := p.run(chains...); err != nil {
		return nil, err
	}
	out := &Fig13Result{}
	for i, name := range apps {
		var row AppRow
		row.App = name
		var compACC, compKag int64
		n := float64(len(seeds))
		for j, seed := range seeds {
			b := p.result(name, trace, seed, baseline)
			a := p.result(name, trace, seed, withACC)
			o := oracles[i*len(seeds)+j]
			k, ideal := o.kagura, o.ideal
			row.ACCSpeedup += a.Speedup(b) / n
			row.KaguraSpeedup += k.Speedup(b) / n
			row.IdealSpeedup += ideal.Speedup(b) / n
			row.ACCEnergySave += a.EnergyReduction(b) / n
			row.KaguraEnergySave += k.EnergyReduction(b) / n
			row.CommittedIncreaseACC += (a.AvgCommittedPerCycle()/b.AvgCommittedPerCycle() - 1) / n
			row.CommittedIncreaseKagura += (k.AvgCommittedPerCycle()/b.AvgCommittedPerCycle() - 1) / n
			compACC += a.Compressions
			compKag += k.Compressions
			row.MissBase += b.DCache.MissRate() / n
			row.MissACC += a.DCache.MissRate() / n
			row.MissKagura += k.DCache.MissRate() / n
			row.IMissBase += b.ICache.MissRate() / n
			row.IMissACC += a.ICache.MissRate() / n
			row.IMissKagura += k.ICache.MissRate() / n
			baseTotal := b.Energy.Total()
			for i, r := range []*ehs.Result{b, a, k} {
				row.Breakdown[i].Compress += r.Energy.Compress / baseTotal / n
				row.Breakdown[i].Decompress += r.Energy.Decompress / baseTotal / n
				row.Breakdown[i].CacheOther += r.Energy.CacheOther / baseTotal / n
				row.Breakdown[i].Memory += r.Energy.Memory / baseTotal / n
				row.Breakdown[i].Checkpoint += r.Energy.Checkpoint / baseTotal / n
				row.Breakdown[i].Others += r.Energy.Others / baseTotal / n
			}
		}
		if compACC > 0 {
			row.CompressionCut = 1 - float64(compKag)/float64(compACC)
		}
		out.Rows = append(out.Rows, row)
	}
	for _, r := range out.Rows {
		out.MeanACC += r.ACCSpeedup
		out.MeanKagura += r.KaguraSpeedup
		out.MeanIdeal += r.IdealSpeedup
		out.MeanACCEnergy += r.ACCEnergySave
		out.MeanKaguraEnergy += r.KaguraEnergySave
		out.MeanCommittedACC += r.CommittedIncreaseACC
		out.MeanCommittedKagura += r.CommittedIncreaseKagura
	}
	cnt := float64(len(out.Rows))
	out.MeanACC /= cnt
	out.MeanKagura /= cnt
	out.MeanIdeal /= cnt
	out.MeanACCEnergy /= cnt
	out.MeanKaguraEnergy /= cnt
	out.MeanCommittedACC /= cnt
	out.MeanCommittedKagura /= cnt
	return out, nil
}

// oracleRun is one (app, seed)'s ACC+Kagura result and its ideal-oracle
// result.
type oracleRun struct{ kagura, ideal *ehs.Result }

// kaguraAndIdeal runs one (app, seed)'s ACC+Kagura cell, then Fig 13's ideal
// intermittence-aware compressor: ACC whose compressions replay the
// usefulness recorded on that ACC+Kagura run (§VIII-C). The cell runs with a
// recording oracle attached; recording only observes, so its result is the
// plain run's and its key comes from the oracle-free config. The ideal job
// then runs only the replay. When the cell's result came from the cache or
// from a coalesced job, nothing was recorded here, and the ideal job records
// for itself. The ideal job's key derives from the record config, so
// identical ideal runs memoize and coalesce like plain runs.
func (l *Lab) kaguraAndIdeal(app, trace string, seed uint64) (oracleRun, error) {
	record, err := l.config(app, trace, seed, cfgKagura)
	if err != nil {
		return oracleRun{}, err
	}
	replay, err := l.config(app, trace, seed, cfgACC)
	if err != nil {
		return oracleRun{}, err
	}
	key := simsvc.ConfigKey(record)
	recordOn := func(ctx context.Context) (*ehs.Result, *ehs.Oracle, error) {
		cfg := record
		cfg.Oracle = ehs.NewOracle()
		res, err := runSim(ctx, cfg)
		return res, cfg.Oracle, err
	}
	var recorded *ehs.Oracle // set only if this call's cell job computed
	k, err := l.do(simID{app, trace, seed, withKag.id}, key, func(ctx context.Context) (*ehs.Result, error) {
		res, oracle, err := recordOn(ctx)
		if err == nil {
			recorded = oracle
		}
		return res, err
	})
	if err != nil {
		return oracleRun{}, err
	}
	ideal, err := l.do(simID{app, trace, seed, "ideal"}, "ideal:"+key, func(ctx context.Context) (*ehs.Result, error) {
		oracle := recorded
		if oracle == nil {
			var err error
			if _, oracle, err = recordOn(ctx); err != nil {
				return nil, err
			}
		}
		replay := replay
		replay.Oracle = oracle.Replay()
		return runSim(ctx, replay)
	})
	return oracleRun{k, ideal}, err
}

// Fig13Performance reproduces Fig 13: speedup over the compressor-free
// baseline for ACC, ACC+Kagura, and the ideal oracle, plus the committed-
// instructions-per-cycle increase.
func (l *Lab) Fig13Performance() (*Fig13Result, error) { return l.headline() }

// Render implements Renderable.
func (r *Fig13Result) Render() Table {
	t := Table{
		ID:     "fig13",
		Title:  "Speedup over NVSRAMCache baseline and committed-instruction increase per power cycle",
		Header: []string{"app", "ACC", "ACC+Kagura", "ideal", "ΔE ACC", "ΔE Kagura", "Δcommit ACC", "Δcommit Kagura"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, pct(row.ACCSpeedup), pct(row.KaguraSpeedup), pct(row.IdealSpeedup),
			pct(row.ACCEnergySave), pct(row.KaguraEnergySave),
			pct(row.CommittedIncreaseACC), pct(row.CommittedIncreaseKagura),
		})
	}
	t.Rows = append(t.Rows, []string{
		"MEAN", pct(r.MeanACC), pct(r.MeanKagura), pct(r.MeanIdeal),
		pct(r.MeanACCEnergy), pct(r.MeanKaguraEnergy),
		pct(r.MeanCommittedACC), pct(r.MeanCommittedKagura),
	})
	t.Notes = append(t.Notes,
		"paper: ACC +0.0022%, ACC+Kagura +4.74% (max +17.87%), ideal +6.19%; energy −0.47% / −4.53% (max −16.21%)")
	return t
}

// Fig15Result holds the cache miss-rate comparison.
type Fig15Result struct{ Rows []AppRow }

// Fig15MissRates reproduces Fig 15: I/D cache miss rates for the three
// configurations.
func (l *Lab) Fig15MissRates() (*Fig15Result, error) {
	h, err := l.headline()
	if err != nil {
		return nil, err
	}
	return &Fig15Result{Rows: h.Rows}, nil
}

// Render implements Renderable.
func (r *Fig15Result) Render() Table {
	t := Table{
		ID:     "fig15",
		Title:  "Cache miss rates (ICache / DCache)",
		Header: []string{"app", "I base", "I ACC", "I +Kagura", "D base", "D ACC", "D +Kagura"},
	}
	var ib, ia, ik, db, da, dk float64
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App,
			pctU(row.IMissBase), pctU(row.IMissACC), pctU(row.IMissKagura),
			pctU(row.MissBase), pctU(row.MissACC), pctU(row.MissKagura),
		})
		ib += row.IMissBase
		ia += row.IMissACC
		ik += row.IMissKagura
		db += row.MissBase
		da += row.MissACC
		dk += row.MissKagura
	}
	n := float64(len(r.Rows))
	t.Rows = append(t.Rows, []string{
		"MEAN", pctU(ib / n), pctU(ia / n), pctU(ik / n), pctU(db / n), pctU(da / n), pctU(dk / n),
	})
	t.Notes = append(t.Notes, "paper: ACC cuts miss rates 1.45% (I) / 2.29% (D); +Kagura 2.71% / 3.24%")
	return t
}

// Fig16Result holds the normalized energy breakdowns.
type Fig16Result struct{ Rows []AppRow }

// Fig16EnergyBreakdown reproduces Fig 16: per-app energy split into the six
// categories, normalized to the baseline total, for baseline/ACC/ACC+Kagura.
func (l *Lab) Fig16EnergyBreakdown() (*Fig16Result, error) {
	h, err := l.headline()
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Rows: h.Rows}, nil
}

// Render implements Renderable.
func (r *Fig16Result) Render() Table {
	t := Table{
		ID:     "fig16",
		Title:  "Energy breakdown normalized to compressor-free baseline (rows: app/config)",
		Header: []string{"app", "config", "Compress", "Decompress", "Cache(other)", "Memory", "Ckpt/Rst", "Others", "Total"},
	}
	names := []string{"base", "ACC", "+Kagura"}
	for _, row := range r.Rows {
		for i, bd := range row.Breakdown {
			t.Rows = append(t.Rows, []string{
				row.App, names[i],
				pctU(bd.Compress), pctU(bd.Decompress), pctU(bd.CacheOther),
				pctU(bd.Memory), pctU(bd.Checkpoint), pctU(bd.Others), pctU(bd.Total()),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: ACC spends 6.88% on compression + 3.06% on decompression; Kagura cuts these to 4.12% / 2.75% and total energy by 4.53%")
	return t
}

// Fig18Result holds Kagura's compression-operation reduction.
type Fig18Result struct {
	Rows []AppRow
	Mean float64
}

// Fig18CompressionReduction reproduces Fig 18: the share of ACC's compression
// operations Kagura eliminates.
func (l *Lab) Fig18CompressionReduction() (*Fig18Result, error) {
	h, err := l.headline()
	if err != nil {
		return nil, err
	}
	out := &Fig18Result{Rows: h.Rows}
	var sum float64
	for _, row := range h.Rows {
		sum += row.CompressionCut
	}
	out.Mean = sum / float64(len(h.Rows))
	return out, nil
}

// Render implements Renderable.
func (r *Fig18Result) Render() Table {
	t := Table{
		ID:     "fig18",
		Title:  "Compression operations eliminated by Kagura",
		Header: []string{"app", "reduction"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.App, pctU(row.CompressionCut)})
	}
	t.Rows = append(t.Rows, []string{"MEAN", pctU(r.Mean)})
	t.Notes = append(t.Notes, "paper: ≈9.85% on average, over 40% for g721d/g721e")
	return t
}

// withCycleLog is the baseline with its per-power-cycle log collected.
var withCycleLog = setup{"base+log", func(c ehs.Config) ehs.Config {
	c.CollectCycleLog = true
	return c
}}

// Fig12Row summarizes neighboring-power-cycle consistency for one app.
type Fig12Row struct {
	App string
	// Mean relative differences between neighboring cycles.
	LoadDiff, StoreDiff, CPIDiff float64
	// Share of neighboring cycles differing by less than 20%.
	LoadWithin, StoreWithin, CPIWithin float64
}

// Fig12Result holds the program-behavior consistency study.
type Fig12Result struct {
	Rows []Fig12Row
	// Means across apps.
	MeanLoad, MeanStore, MeanCPI                   float64
	MeanLoadWithin, MeanStoreWithin, MeanCPIWithin float64
}

// Fig12CycleConsistency reproduces Fig 12: how similar are neighboring power
// cycles in committed loads, stores, and CPI?
func (l *Lab) Fig12CycleConsistency() (*Fig12Result, error) {
	trace := l.opts.traceName()
	p, err := l.simulate(l.opts.appNames(), trace, withCycleLog)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{}
	for _, name := range l.opts.appNames() {
		var row Fig12Row
		row.App = name
		var loads, stores, cpis []float64
		for _, seed := range l.opts.seeds() {
			res := p.result(name, trace, seed, withCycleLog)
			for i := 1; i < len(res.Cycles); i++ {
				prev, cur := res.Cycles[i-1], res.Cycles[i]
				loads = append(loads, relDiff(float64(cur.Loads), float64(prev.Loads)))
				stores = append(stores, relDiff(float64(cur.Stores), float64(prev.Stores)))
				cpis = append(cpis, relDiff(cur.CPI(), prev.CPI()))
			}
		}
		row.LoadDiff, row.LoadWithin = summarizeDiffs(loads)
		row.StoreDiff, row.StoreWithin = summarizeDiffs(stores)
		row.CPIDiff, row.CPIWithin = summarizeDiffs(cpis)
		out.Rows = append(out.Rows, row)
	}
	n := float64(len(out.Rows))
	for _, r := range out.Rows {
		out.MeanLoad += r.LoadDiff / n
		out.MeanStore += r.StoreDiff / n
		out.MeanCPI += r.CPIDiff / n
		out.MeanLoadWithin += r.LoadWithin / n
		out.MeanStoreWithin += r.StoreWithin / n
		out.MeanCPIWithin += r.CPIWithin / n
	}
	return out, nil
}

// relDiff returns |a−b| / max(|b|, ε).
// kagura:floateq-helper — the exact-zero tests define the ε fallback itself.
func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(a-b) / math.Abs(b)
}

// summarizeDiffs returns the mean relative difference and the share < 20%.
func summarizeDiffs(diffs []float64) (meanDiff, within float64) {
	if len(diffs) == 0 {
		return 0, 1
	}
	cnt := 0
	for _, d := range diffs {
		meanDiff += d
		if d < 0.20 {
			cnt++
		}
	}
	return meanDiff / float64(len(diffs)), float64(cnt) / float64(len(diffs))
}

// Render implements Renderable.
func (r *Fig12Result) Render() Table {
	t := Table{
		ID:     "fig12",
		Title:  "Neighboring power-cycle consistency (mean diff / share within 20%)",
		Header: []string{"app", "load diff", "store diff", "CPI diff", "load<20%", "store<20%", "CPI<20%"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, pctU(row.LoadDiff), pctU(row.StoreDiff), pctU(row.CPIDiff),
			pctU(row.LoadWithin), pctU(row.StoreWithin), pctU(row.CPIWithin),
		})
	}
	t.Rows = append(t.Rows, []string{
		"MEAN", pctU(r.MeanLoad), pctU(r.MeanStore), pctU(r.MeanCPI),
		pctU(r.MeanLoadWithin), pctU(r.MeanStoreWithin), pctU(r.MeanCPIWithin),
	})
	t.Notes = append(t.Notes, "paper: mean diffs 5.73% / 14.11% / 5.26%; within-20% shares 86.91% / 80.27% / 88.48%")
	return t
}

// Fig14Row is the power-cycle length distribution for one app.
type Fig14Row struct {
	App           string
	P10, P50, P90 float64 // committed instructions per cycle
	MeanCommitted float64
	Cycles        int
}

// Fig14Result holds the cycle-length distributions.
type Fig14Result struct{ Rows []Fig14Row }

// Fig14CycleLengths reproduces Fig 14: the distribution of power-cycle
// lengths (in committed instructions) per application.
func (l *Lab) Fig14CycleLengths() (*Fig14Result, error) {
	trace := l.opts.traceName()
	p, err := l.simulate(l.opts.appNames(), trace, withCycleLog)
	if err != nil {
		return nil, err
	}
	out := &Fig14Result{}
	for _, name := range l.opts.appNames() {
		var lengths []float64
		for _, seed := range l.opts.seeds() {
			for _, c := range p.result(name, trace, seed, withCycleLog).Cycles {
				lengths = append(lengths, float64(c.Committed))
			}
		}
		out.Rows = append(out.Rows, Fig14Row{
			App:           name,
			P10:           percentile(lengths, 0.10),
			P50:           percentile(lengths, 0.50),
			P90:           percentile(lengths, 0.90),
			MeanCommitted: mean(lengths),
			Cycles:        len(lengths),
		})
	}
	return out, nil
}

// Render implements Renderable.
func (r *Fig14Result) Render() Table {
	t := Table{
		ID:     "fig14",
		Title:  "Power-cycle length distribution (committed instructions)",
		Header: []string{"app", "p10", "median", "p90", "mean", "cycles"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App,
			fmt.Sprintf("%.0f", row.P10), fmt.Sprintf("%.0f", row.P50),
			fmt.Sprintf("%.0f", row.P90), fmt.Sprintf("%.0f", row.MeanCommitted),
			fmt.Sprintf("%d", row.Cycles),
		})
	}
	t.Notes = append(t.Notes, "paper: most power cycles have comparable length, in the thousands of instructions")
	return t
}
