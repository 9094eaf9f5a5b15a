package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kagura/internal/ckpt"
	"kagura/internal/ehs"
	"kagura/internal/journal"
	"kagura/internal/obs"
	"kagura/internal/powertrace"
	"kagura/internal/simsvc"
	"kagura/internal/store"
)

// serveLayerSpecs bounds how many of the list's specs the per-call RunSpec
// and trace timings use: each call synthesizes a 200k-sample trace, so the
// whole list would take seconds per pass.
const serveLayerSpecs = 24

// serveStats accumulates what the traced rounds read back.
type serveStats struct {
	rounds   int
	classLat map[string][]float64
	// Per class: jobs seen, Σ seconds per phase, Σ span total.
	classJobs map[string]int
	phaseSec  map[string]map[string]float64
	spanTotal map[string]float64
	runLatSum float64 // Σ client latency of /v1/run requests
	runCount  int
	counters  map[string]float64 // Σ over rounds of the /metrics counters
	restarts  []float64
	rssPerReq []float64
}

// serveCounters are the /metrics families the traced run reports, by the
// per-layer metric they feed. Each is summed over its label sets and over
// the service's two lives in a round (counters restart with the process).
var serveCounters = map[string]string{
	"store.hits":          "kagura_store_hits_total",
	"store.writes":        "kagura_store_writes_total",
	"store.publish_drops": "kagura_store_publish_drops_total",
	"journal.appends":     "kagura_journal_appends_total",
	"jobs.run":            `kagura_jobs_total{status="run"}`,
	"jobs.cached":         `kagura_jobs_total{status="cached"}`,
}

// sumSeries sums every sample of one family (or of one exact series when
// name carries labels) in a Prometheus text exposition.
func sumSeries(text, name string) (float64, error) {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		family, _, _ := strings.Cut(series, "{")
		if series != name && family != name {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics %s: %w", line, err)
		}
		sum += v
	}
	return sum, nil
}

// jobClass assigns a retained job to the request class that created it.
func jobClass(job simsvc.JobStatus) string {
	phases := map[string]bool{}
	for _, sp := range job.Trace {
		phases[sp.Phase] = true
	}
	switch {
	case job.WarmStartFromCycle > 0:
		return "fork"
	case job.Cached:
		return "hit"
	case phases[obs.PhaseCompute]:
		return "cold"
	case phases[obs.PhaseStore]:
		return "disk"
	}
	return ""
}

func (st *serveStats) add(list []request, replies []reply, tr *roundTrace) error {
	if st.classLat == nil {
		st.classLat = map[string][]float64{}
		st.classJobs = map[string]int{}
		st.phaseSec = map[string]map[string]float64{}
		st.spanTotal = map[string]float64{}
		st.counters = map[string]float64{}
	}
	st.rounds++
	for i, req := range list {
		st.classLat[req.class] = append(st.classLat[req.class], replies[i].lat)
		if req.class != "fork" {
			st.runLatSum += replies[i].lat
			st.runCount++
		}
	}
	warmKey, err := warmSpec.Key()
	if err != nil {
		return err
	}
	for p := range tr.jobs {
		for _, job := range tr.jobs[p] {
			class := jobClass(job)
			if job.Key == warmKey || class == "" {
				continue
			}
			st.classJobs[class]++
			if st.phaseSec[class] == nil {
				st.phaseSec[class] = map[string]float64{}
			}
			for _, sp := range job.Trace {
				st.phaseSec[class][sp.Phase] += sp.Seconds
				st.spanTotal[class] += sp.Seconds
			}
		}
		for metric, series := range serveCounters {
			v, err := sumSeries(tr.metrics[p], series)
			if err != nil {
				return err
			}
			st.counters[metric] += v
		}
	}
	st.restarts = append(st.restarts, tr.restart)
	st.rssPerReq = append(st.rssPerReq, (tr.rssPeak-tr.rssBase)/float64(len(list)))
	return nil
}

// serveLayers reports the traced rounds' per-class and per-phase numbers and
// times the request path's layers on the list's own specs and results.
func serveLayers(opts options, list []request, direct map[int]*ehs.Result, st *serveStats) (map[string]float64, error) {
	m := map[string]float64{}
	for _, class := range requestClasses {
		m["serve."+class+".p50_ms"] = median(st.classLat[class]) * 1e3
		for _, phase := range jobPhases {
			v := 0.0
			if n := st.classJobs[class]; n > 0 {
				v = st.phaseSec[class][phase] / float64(n) * 1e3
			}
			m["simsvc.phase_ms."+class+"."+phase] = v
		}
	}
	var runJobs int
	var runSpan float64
	for _, class := range []string{"cold", "hit", "disk"} {
		runJobs += st.classJobs[class]
		runSpan += st.spanTotal[class]
	}
	m["simsvc.http_ms"] = (st.runLatSum/float64(st.runCount) - runSpan/float64(runJobs)) * 1e3
	rounds := float64(st.rounds)
	m["simsvc.cache_hit_ratio"] = st.counters["jobs.cached"] / (st.counters["jobs.run"] + st.counters["jobs.cached"])
	for _, name := range []string{"store.hits", "store.writes", "store.publish_drops", "journal.appends"} {
		m[name] = st.counters[name] / rounds
	}
	m["simsvc.restart_ms"] = median(st.restarts) * 1e3
	m["simsvc.rss_mb_per_request"] = median(st.rssPerReq)

	// RunSpec methods and trace synthesis, per call, on the list's first
	// distinct cold and fork-base specs.
	var specs []simsvc.RunSpec
	for _, req := range list {
		if (req.class == "cold" || req.class == "fork") && len(specs) < serveLayerSpecs {
			specs = append(specs, req.spec)
		}
	}
	var firstErr error
	timeSpecs := func(name string, call func(sp simsvc.RunSpec) error) {
		perPass := timeLoop(layerBudget, func() {
			for _, sp := range specs {
				if err := call(sp); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
				}
			}
		})
		m[name] = perPass / float64(len(specs)) * 1e3
	}
	timeSpecs("simsvc.normalize_ms", func(sp simsvc.RunSpec) error { _, err := sp.Normalize(); return err })
	timeSpecs("simsvc.key_ms", func(sp simsvc.RunSpec) error { _, err := sp.Key(); return err })
	timeSpecs("simsvc.config_ms", func(sp simsvc.RunSpec) error { _, err := sp.Config(); return err })
	timeSpecs("powertrace.synth_ms", func(sp simsvc.RunSpec) error {
		_, err := powertrace.ByName(sp.Trace, sp.Seed)
		return err
	})
	if firstErr != nil {
		return nil, firstErr
	}

	// Store put/get, result decode and journal append, on this run's
	// results and specs, in directories of their own.
	var payloads [][]byte
	var keys []string
	for i, res := range direct {
		blob, err := ckpt.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, blob)
		keys = append(keys, fmt.Sprintf("serve-%d-%d", opts.seed, i))
	}
	s, err := store.Open(store.Options{Dir: filepath.Join(opts.workdir, "layer-store")})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i, blob := range payloads {
		if err := s.Put(store.KindResult, keys[i], blob); err != nil {
			return nil, err
		}
	}
	m["store.put_ms"] = since(start) / float64(len(payloads)) * 1e3
	start = time.Now()
	for _, key := range keys {
		if _, ok := s.Get(store.KindResult, key); !ok {
			return nil, fmt.Errorf("store get %s: missing", key)
		}
	}
	m["store.get_ms"] = since(start) / float64(len(keys)) * 1e3
	perPass := timeLoop(layerBudget, func() {
		for _, blob := range payloads {
			if _, err := ckpt.DecodeResult(blob); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	m["ckpt.result_decode_us"] = perPass / float64(len(payloads)) * 1e6

	jnl, err := journal.Open(filepath.Join(opts.workdir, "layer-journal"))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i, req := range list {
		spec, err := json.Marshal(req.spec)
		if err != nil {
			return nil, err
		}
		rec := journal.Record{Type: journal.TypeJobSubmit, Key: fmt.Sprintf("serve-%d", i), Spec: spec}
		if err := jnl.Append(rec); err != nil {
			return nil, err
		}
	}
	m["journal.append_us"] = since(start) / float64(len(list)) * 1e6
	if err := jnl.Close(); err != nil {
		return nil, err
	}

	// Checkpoint encode/decode on the forks' warm snapshots.
	var encSec, decSec float64
	var snaps int
	for _, req := range list {
		if req.class != "fork" || snaps == 4 {
			continue
		}
		cfg, err := req.spec.Config()
		if err != nil {
			return nil, err
		}
		sim, err := ehs.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := sim.RunToCycle(context.Background(), forkCycles); err != nil {
			return nil, err
		}
		snap, err := sim.Snapshot()
		if err != nil {
			return nil, err
		}
		var blob []byte
		encSec += timeLoop(layerBudget/4, func() { blob, err = ckpt.Encode(snap) })
		if err != nil {
			return nil, err
		}
		decSec += timeLoop(layerBudget/4, func() { _, err = ckpt.Decode(blob) })
		if err != nil {
			return nil, err
		}
		snaps++
	}
	m["ckpt.encode_ms"] = encSec / float64(snaps) * 1e3
	m["ckpt.decode_ms"] = decSec / float64(snaps) * 1e3
	return m, firstErr
}
