// Command perfbench is the repository's benchmark: three workloads (sim,
// serve, figures) that measure the simulator, the HTTP service and figure
// regeneration end to end, and a traced mode that times each layer from
// outside by calling its public functions on the real run's inputs.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash _perfbench/run.sh --workload sim --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. The lines before it are a human-readable table with the
// quartiles beside each median. README.md documents the workloads, the
// metrics and the predictions they encode.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded reference outputs in testdata/ were
// made with. Every run checks the program against them, whatever its seed.
const defaultSeed = 1

// metricDef names one metric and its unit. The lists below are the
// benchmark's metric catalogue; BENCHMARK.json must declare exactly these
// (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every workload with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"minstr_per_s", "Minstr/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// codecNames are the paper's four codecs, in compress.Names order.
var codecNames = []string{"BDI", "FPC", "C-Pack", "DZC"}

// requestClasses are the serve workload's request classes.
var requestClasses = []string{"cold", "hit", "fork", "disk"}

// jobPhases are the simsvc job-trace phases read back per class.
var jobPhases = []string{"queued", "coalesced", "cached", "warmstart", "compute", "store"}

// perLayer is printed by every workload with --trace 1: each traced run
// measures every layer, its own workload's from its traced phase and the
// others' from one pass of their inputs at the same seed.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace_overhead_frac", "ratio"},
		// sim layers.
		{"ehs.ns_per_instr.base", "ns"},
		{"ehs.ns_per_instr.acc", "ns"},
		{"ehs.ns_per_instr.kagura", "ns"},
		{"workload.cursor_ns", "ns"},
		{"cache.access_ns", "ns"},
		{"cache.ifetch_ns", "ns"},
		{"cache.icache_miss_rate", "ratio"},
		{"cache.dcache_miss_rate", "ratio"},
	}
	for _, c := range codecNames {
		defs = append(defs, metricDef{"compress.size_ns." + c, "ns"})
	}
	for _, c := range codecNames {
		defs = append(defs, metricDef{"compress.decompress_ns." + c, "ns"})
	}
	defs = append(defs,
		metricDef{"compress.ops_per_kinstr", "count"},
		metricDef{"kagura.memop_ns", "ns"},
		metricDef{"kagura.rm_entries", "count"},
		metricDef{"capacitor.advance_ns", "ns"},
		metricDef{"nvm.read_ns", "ns"},
		metricDef{"nvm.write_ns", "ns"},
		metricDef{"ehs.power_cycles", "count"},
		metricDef{"ehs.unattributed_frac", "ratio"},
		// serve layers.
		metricDef{"simsvc.normalize_ms", "ms"},
		metricDef{"simsvc.key_ms", "ms"},
		metricDef{"simsvc.config_ms", "ms"},
		metricDef{"powertrace.synth_ms", "ms"},
	)
	for _, c := range requestClasses {
		defs = append(defs, metricDef{"serve." + c + ".p50_ms", "ms"})
	}
	for _, c := range requestClasses {
		for _, p := range jobPhases {
			defs = append(defs, metricDef{"simsvc.phase_ms." + c + "." + p, "ms"})
		}
	}
	defs = append(defs,
		metricDef{"simsvc.http_ms", "ms"},
		metricDef{"simsvc.cache_hit_ratio", "ratio"},
		metricDef{"store.hits", "count"},
		metricDef{"store.writes", "count"},
		metricDef{"store.publish_drops", "count"},
		metricDef{"journal.appends", "count"},
		metricDef{"store.put_ms", "ms"},
		metricDef{"store.get_ms", "ms"},
		metricDef{"ckpt.result_decode_us", "us"},
		metricDef{"journal.append_us", "us"},
		metricDef{"ckpt.encode_ms", "ms"},
		metricDef{"ckpt.decode_ms", "ms"},
		metricDef{"simsvc.restart_ms", "ms"},
		metricDef{"simsvc.rss_mb_per_request", "MiB"},
		// figures layers.
		metricDef{"experiments.fig13_s", "s"},
		metricDef{"experiments.fig19_s", "s"},
		metricDef{"experiments.fig23_s", "s"},
		metricDef{"experiments.fig24_s", "s"},
		metricDef{"simsvc.jobs_run", "count"},
		metricDef{"simsvc.jobs_cached", "count"},
		metricDef{"simsvc.compute_frac", "ratio"},
		metricDef{"ehs.fingerprint_ms", "ms"},
	)
	return defs
}()

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	workdir string
}

// unit is one pass over the sim matrix, one serve round, or one figure set:
// the timed phase is a whole number of units, and the throughput metrics are
// medians over them, so a stall of the shared host moves one unit, not the
// run. peak_rss_mb is the highest unit peak: the timed phase's peak.
type unit struct {
	ops    int
	instrs int64 // simulated instructions the unit executed
	sec    float64
	rssMB  float64 // peak resident set while the unit ran
}

// outcome is what one workload's timed phase produced.
type outcome struct {
	setup []float64 // seconds per set-up (median reported)
	opLat []float64 // seconds per timed op
	units []unit

	attempted, failed int
	failures          []string // first few failure descriptions

	layers map[string]float64 // traced runs only
}

// fail records one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds a second outcome's op counts and failures into o.
func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < 5 {
			o.failures = append(o.failures, f)
		}
	}
}

// rates returns ops/s, simulated Minstr/s and peak RSS per unit.
func (o *outcome) rates() (ops, minstr, rss []float64) {
	for _, u := range o.units {
		ops = append(ops, float64(u.ops)/u.sec)
		minstr = append(minstr, float64(u.instrs)/u.sec/1e6)
		rss = append(rss, u.rssMB)
	}
	return ops, minstr, rss
}

// opsPerSec is the median over units of ops completed per host second.
func (o *outcome) opsPerSec() float64 {
	ops, _, _ := o.rates()
	return median(ops)
}

// wall is the timed phase's total seconds.
func (o *outcome) wall() float64 {
	var s float64
	for _, u := range o.units {
		s += u.sec
	}
	return s
}

// benchWorkload is one benchmark workload. run measures it for the given
// number of seconds (at least one unit); with traced set it also fills
// outcome.layers with the per-layer metrics of its own layers.
type benchWorkload struct {
	name string
	run  func(opts options, seconds float64, traced bool) (*outcome, error)
}

var workloads = []benchWorkload{
	{"sim", runSim},
	{"serve", runServe},
	{"figures", runFigures},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim, serve or figures")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 20, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for service stores and journals")
	record := fs.Bool("record", false, "rewrite the reference outputs in testdata/ for the default seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordReferences(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sim|serve|figures, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	opts := options{seed: *seed, seconds: *seconds, workdir: dir}

	var metrics map[string]float64
	var total outcome
	if *trace == 0 {
		out, err := w.run(opts, opts.seconds, false)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		total.merge(out)
		metrics = endToEndMetrics(out)
		printTable(stdout, w.name, out)
	} else {
		metrics, err = runTraced(stdout, w, opts, &total)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	for _, f := range total.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := resultLine(defs, metrics, &total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runTraced measures workload w untraced for half the run and traced for the
// other half, then measures the other workloads' layers with one pass each.
// Its end-to-end numbers are printed as a table; the per-layer metrics are
// returned.
func runTraced(stdout io.Writer, w *benchWorkload, opts options, total *outcome) (map[string]float64, error) {
	half := opts.seconds / 2
	plain, err := w.run(opts, half, false)
	if err != nil {
		return nil, err
	}
	total.merge(plain)
	metrics := map[string]float64{}
	for _, x := range workloads {
		budget := 0.0 // one pass or round
		if x.name == w.name {
			budget = half
		}
		out, err := x.run(opts, budget, true)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", x.name, err)
		}
		total.merge(out)
		for k, v := range out.layers {
			metrics[k] = v
		}
		if x.name == w.name {
			printTable(stdout, w.name+" (traced)", out)
			metrics["trace_overhead_frac"] = plain.opsPerSec()/out.opsPerSec() - 1
		}
	}
	fmt.Fprintf(stdout, "%s (untraced half)  ops_per_s %.4g\n", w.name, plain.opsPerSec())
	return metrics, nil
}

// endToEndMetrics derives the end-to-end metrics from a timed phase.
func endToEndMetrics(o *outcome) map[string]float64 {
	lat := sortedCopy(o.opLat)
	ops, minstr, rss := o.rates()
	return map[string]float64{
		"setup_s":      median(o.setup),
		"ops_per_s":    median(ops),
		"minstr_per_s": median(minstr),
		"p50_ms":       quantile(lat, 0.50) * 1e3,
		"p95_ms":       quantile(lat, 0.95) * 1e3,
		"peak_rss_mb":  quantile(sortedCopy(rss), 1),
	}
}

// printTable writes the human-readable summary: the medians beside their
// quartiles and sample counts, then the end-to-end metrics.
func printTable(w io.Writer, title string, o *outcome) {
	fmt.Fprintf(w, "== %s: %d ops attempted, %d failed, %.2fs timed ==\n", title, o.attempted, o.failed, o.wall())
	row := func(name string, scale float64, xs []float64) {
		s := sortedCopy(xs)
		fmt.Fprintf(w, "%-22s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n", name,
			quantile(s, 0.5)*scale, quantile(s, 0.25)*scale, quantile(s, 0.75)*scale, len(s))
	}
	row("setup_s", 1, o.setup)
	row("op latency ms", 1e3, o.opLat)
	ops, minstr, rss := o.rates()
	row("ops_per_s per unit", 1, ops)
	row("minstr_per_s per unit", 1, minstr)
	row("peak_rss_mb per unit", 1, rss)
	fmt.Fprintf(w, "%-22s %.6g MiB\n", "VmHWM", peakRSSMB())
	m := endToEndMetrics(o)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-22s %.6g %s\n", d.name, m[d.name], d.unit)
	}
}

// resultLine renders the final JSON line. Every catalogued metric must have
// been measured: a missing one is a benchmark bug, not a program failure.
func resultLine(defs []metricDef, values map[string]float64, o *outcome) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	blob, err := json.Marshal(out)
	return string(blob), err
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// procStatusKB reads one "<field>: N kB" line of /proc/self/status.
func procStatusKB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
	}
	return 0, errors.New("no " + field + " in /proc/self/status")
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb, err := procStatusKB("VmHWM")
	if err != nil {
		return 0
	}
	return kb / 1024
}

// rssMB is the process's current resident set (VmRSS) in MiB.
func rssMB() float64 {
	kb, err := procStatusKB("VmRSS")
	if err != nil {
		return 0
	}
	return kb / 1024
}

// timeLoop calls op until at least budget seconds have passed (at least
// once) and returns the mean seconds per call of op. It times layer calls
// too short to time one at a time.
func timeLoop(budget float64, op func()) float64 {
	start := time.Now()
	n := 0
	for {
		op()
		n++
		if el := time.Since(start).Seconds(); el >= budget {
			return el / float64(n)
		}
	}
}

// releaseMemory collects the previous unit's garbage and returns it to the
// OS, untimed, so the peak resident set is one unit's and not an accident
// of when the collector last ran.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// rssSampler tracks the peak resident set while one unit runs, polling
// VmRSS: the process-wide high-water mark VmHWM would also count earlier
// units and the set-ups, and with them whenever the collector last ran.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

// rssSampleInterval is the sampler's polling period.
const rssSampleInterval = 10 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(rssSampleInterval)
		defer tick.Stop()
		peak := rssMB()
		for {
			select {
			case <-s.stop:
				s.peak <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return s
}

// done stops the sampler and returns the peak in MiB.
func (s *rssSampler) done() float64 {
	close(s.stop)
	return <-s.peak
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
