package experiments

import (
	"fmt"

	"kagura/internal/cache"
	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
)

// The extension experiments go beyond the paper's evaluation section,
// exercising mechanisms the paper describes but does not plot: §VI-A's
// simple-vs-sophisticated estimator, §VII-A's atomic I/O regions, and the
// §IX related compressors (BPC, FVC).

// EstimatorAblation compares §VI-A's Simple Approach (no reward/punishment
// counter, no R_adjust) against the sophisticated default.
func (l *Lab) EstimatorAblation() (*SweepResult, error) {
	var rows []row
	for _, v := range []struct {
		label  string
		simple bool
	}{{"simple (§VI-A)", true}, {"sophisticated", false}} {
		fn := tunedKagura(func(kc *kagura.Config) { kc.SimpleEstimator = v.simple })
		rows = append(rows, row{v.label, []cell{overBase(fmt.Sprintf("kagura:simple=%v", v.simple), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "estimator",
		Title:   "§VI-A estimator ablation (ACC+Kagura speedup over baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: the sophisticated approach motivates R_adjust and the 2-bit counter"},
	}, rows)
}

// AtomicRegions evaluates §VII-A: with peripheral atomic regions, extra
// region checkpoints burn energy and shorten power cycles, giving Kagura
// more useless compressions to avert. Speedups are over the same-region
// baseline.
func (l *Lab) AtomicRegions() (*SweepResult, error) {
	var rows []row
	for _, region := range []int64{0, 2048, 512} {
		label := "JIT only"
		if region > 0 {
			label = fmt.Sprintf("regions of %d", region)
		}
		fn := func(c ehs.Config) ehs.Config {
			c.AtomicRegionInstrs = region
			return c
		}
		rows = append(rows, row{label, []cell{kaguraOver(fmt.Sprintf("region%d", region), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "atomic",
		Title:   "§VII-A atomic I/O regions (ACC+Kagura speedup over same-region baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"paper: region-level checkpointing brings more opportunities for Kagura"},
	}, rows)
}

// ReplacementPolicies is an ablation over the cache replacement policy (the
// paper fixes LRU, Table I): how much of the compression stack's behavior
// depends on it?
func (l *Lab) ReplacementPolicies() (*SweepResult, error) {
	var rows []row
	for _, repl := range []cache.Replacement{cache.ReplLRU, cache.ReplFIFO, cache.ReplRandom} {
		fn := func(c ehs.Config) ehs.Config {
			c.ICache.Replacement = repl
			c.DCache.Replacement = repl
			return c
		}
		rows = append(rows, row{repl.String(), []cell{kaguraOver(repl.String(), fn)}})
	}
	return l.sweep(&SweepResult{
		ID:      "replacement",
		Title:   "Cache replacement policy ablation (speedup over same-policy baseline)",
		Configs: []string{"+ACC+Kagura"},
		Notes:   []string{"ablation: the paper's Table I fixes LRU"},
	}, rows)
}

// ExtendedCompressors runs the Fig 23 study over the §IX related
// compressors (BPC, FVC) alongside the paper's four.
func (l *Lab) ExtendedCompressors() (*SweepResult, error) {
	return l.sweep(&SweepResult{
		ID:      "codecs-ext",
		Title:   "Extended compressor study (§IX related work: BPC, FVC)",
		Configs: []string{"+ACC", "+ACC+Kagura"},
		Notes:   []string{"extension beyond Fig 23: the related compressors the paper surveys"},
	}, codecRows(compress.Extended()))
}
