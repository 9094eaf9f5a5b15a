package main

import (
	"strings"
	"time"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/experiments"
	"kagura/internal/kagura"
	"kagura/internal/obs"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// figureIDs are the experiments one figures op regenerates: the headline and
// its oracle (fig13), and three sensitivity sweeps (designs × triggers,
// codecs, cache sizes).
var figureIDs = []string{"fig13", "fig19", "fig23", "fig24"}

// figuresSetups is how many times a figures run repeats its set-up (one
// warm-up figure set each); setup_s is the median.
const figuresSetups = 5

// figureStats accumulates the traced run's per-op service statistics.
type figureStats struct {
	ops        int
	figSec     map[string]float64
	jobsRun    int64
	jobsCached int64
	instrs     int64   // simulated instructions of the jobs that ran
	computeSec float64 // Σ compute-span seconds
	busySec    float64 // Σ op wall × workers
}

// figureSet regenerates the four figures with a fresh Lab, the kagura-bench
// -quick preset at the seed, and returns the rendered tables. With st non-nil
// it also reads back the Lab's service statistics (after the timed part).
func figureSet(seed uint64, st *figureStats) (string, error) {
	opts := experiments.Quick()
	opts.Seeds = []uint64{seed}
	start := time.Now()
	lab := experiments.New(opts)
	defer lab.Close()
	var b strings.Builder
	for _, id := range figureIDs {
		t := time.Now()
		r, err := lab.Run(id)
		if err != nil {
			return "", err
		}
		b.WriteString(r.Render().String())
		if st != nil {
			st.figSec[id] += since(t)
		}
	}
	if st != nil {
		wall := since(start)
		svc := lab.Service()
		m := svc.Metrics()
		st.ops++
		st.jobsRun += m.JobsRun
		st.jobsCached += m.JobsCached
		st.busySec += wall * float64(svc.Options().Workers)
		for _, job := range svc.Jobs() {
			for _, sp := range job.Trace {
				if sp.Phase == obs.PhaseCompute {
					st.computeSec += sp.Seconds
				}
			}
			if job.Result != nil && !job.Cached {
				st.instrs += job.Result.Executed
			}
		}
	}
	return b.String(), nil
}

// runFigures times whole figure sets until the budget is spent (at least
// one).
func runFigures(opts options, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{}
	want := ""
	if opts.seed == defaultSeed {
		ref, err := loadFiguresReference()
		if err != nil {
			return nil, err
		}
		want = ref
	}
	check := func(got string, err error, what string) {
		out.attempted++
		switch {
		case err != nil:
			out.fail("figures %s: %v", what, err)
		case want == "":
			want = got
		case got != want:
			out.fail("figures %s: rendered tables differ from the reference", what)
		}
	}

	// Set-up is the warm-up figure set; it also counts the simulated
	// instructions one set executes (deterministic for a seed).
	var perSet int64
	for i := 0; i < figuresSetups; i++ {
		releaseMemory()
		st := &figureStats{figSec: map[string]float64{}}
		start := time.Now()
		got, err := figureSet(opts.seed, st)
		out.setup = append(out.setup, since(start))
		check(got, err, "warm-up")
		perSet = st.instrs
	}

	st := &figureStats{figSec: map[string]float64{}}
	var stp *figureStats
	if traced {
		stp = st
	}
	start := time.Now()
	for {
		releaseMemory()
		rss := sampleRSS()
		t := time.Now()
		got, err := figureSet(opts.seed, stp)
		sec := since(t)
		peak := rss.done()
		check(got, err, "op")
		if err == nil {
			out.opLat = append(out.opLat, sec)
			out.units = append(out.units, unit{ops: 1, instrs: perSet, sec: sec, rssMB: peak})
		}
		if since(start) >= seconds {
			break
		}
	}

	if opts.seed != defaultSeed {
		ref, err := loadFiguresReference()
		if err != nil {
			return nil, err
		}
		want = ref
		got, err := figureSet(defaultSeed, nil)
		check(got, err, "reference")
	}
	if traced {
		layers, err := figureLayers(opts.seed, st)
		if err != nil {
			return nil, err
		}
		out.layers = layers
	}
	return out, nil
}

// figureLayers reports the traced ops' per-experiment times and service
// statistics, and times the Lab's memo key (ehs.Config.Fingerprint) on the
// configurations it builds.
func figureLayers(seed uint64, st *figureStats) (map[string]float64, error) {
	m := map[string]float64{}
	n := float64(st.ops)
	for _, id := range figureIDs {
		m["experiments."+id+"_s"] = st.figSec[id] / n
	}
	m["simsvc.jobs_run"] = float64(st.jobsRun) / n
	m["simsvc.jobs_cached"] = float64(st.jobsCached) / n
	m["simsvc.compute_frac"] = st.computeSec / st.busySec

	opts := experiments.Quick()
	trace := powertrace.RFHome(seed)
	var cfgs []ehs.Config
	for _, name := range opts.Apps {
		app, err := workload.ByName(name, opts.Scale)
		if err != nil {
			return nil, err
		}
		base := ehs.Default(app, trace)
		acc := base.WithACC(compress.BDI{})
		cfgs = append(cfgs, base, acc, acc.WithKagura(kagura.DefaultConfig()))
	}
	var key string
	perPass := timeLoop(layerBudget, func() {
		for _, cfg := range cfgs {
			key = cfg.Fingerprint()
		}
	})
	sink ^= uint32(len(key))
	m["ehs.fingerprint_ms"] = perPass / float64(len(cfgs)) * 1e3
	return m, nil
}
