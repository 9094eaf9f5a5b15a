// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII). Each experiment has a runner method on Lab returning a
// typed result that renders to a text table; DESIGN.md's per-experiment index
// maps paper figure/table numbers to runners, and EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Simulations are deterministic, but wall-clock results on a bursty ambient
// trace are sensitive to how power-cycle boundaries align with harvest
// bursts, so every experiment averages each configuration over several trace
// seeds (Options.Seeds). A Lab memoizes runs, letting experiments that share
// configurations (Figs 13/15/16/18 all need baseline/ACC/Kagura runs) reuse
// them.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/simsvc"
	"kagura/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies workload lengths (1.0 ≈ 600k instructions per app).
	Scale float64
	// Seeds are the power-trace seeds averaged per configuration.
	Seeds []uint64
	// Apps restricts the suite (nil ⇒ all 20 applications).
	Apps []string
	// SubsetSize bounds sensitivity studies that the paper runs on a subset
	// of applications (0 ⇒ default 6).
	SubsetSize int
	// Trace names the ambient source used unless the experiment sweeps
	// traces ("" ⇒ RFHome).
	Trace string
}

// Defaults returns full-fidelity options: every app, three seeds, full-length
// workloads.
func Defaults() Options {
	return Options{Scale: 1.0, Seeds: []uint64{1, 2, 3}}
}

// Quick returns reduced options for smoke tests: shorter programs, one seed,
// a handful of apps.
func Quick() Options {
	return Options{
		Scale:      0.08,
		Seeds:      []uint64{1},
		Apps:       []string{"jpeg", "jpegd", "typeset", "patricia", "blowfish", "strings"},
		SubsetSize: 2,
	}
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) seeds() []uint64 {
	if len(o.Seeds) == 0 {
		return []uint64{1, 2, 3}
	}
	return o.Seeds
}

func (o Options) appNames() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.Names()
}

// subsetNames returns the application subset used by sensitivity studies:
// the six apps of Fig 17, spanning the arithmetic-intensity range.
func (o Options) subsetNames() []string {
	subset := []string{"jpegd", "jpeg", "gsm", "susan", "patricia", "strings"}
	if len(o.Apps) > 0 {
		subset = o.Apps
	}
	n := o.SubsetSize
	if n <= 0 {
		n = 6
	}
	if n > len(subset) {
		n = len(subset)
	}
	return subset[:n]
}

func (o Options) traceName() string {
	if o.Trace == "" {
		return "RFHome"
	}
	return o.Trace
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // experiment id, e.g. "fig13"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Renderable is any experiment result.
type Renderable interface {
	Render() Table
}

// Lab runs experiments as a client of the simulation service: every run is
// submitted through simsvc, which schedules it on a bounded worker pool and
// memoizes the result by canonical configuration hash. Experiments that share
// configurations (Figs 13/15/16/18 all need baseline/ACC/Kagura runs) reuse
// each other's results, and identical in-flight runs coalesce instead of
// computing twice.
type Lab struct {
	opts    Options
	svc     *simsvc.Service
	ownsSvc bool

	mu  sync.Mutex
	ctx context.Context // active RunContext context (nil ⇒ Background)
	// The input memo: workloads by name, power traces by (name, seed).
	// Simulations only read them, so every run shares one instance of each.
	apps   map[string]*workload.App
	traces map[traceID]*powertrace.Trace
}

type traceID struct {
	name string
	seed uint64
}

// New creates a Lab backed by its own simulation service.
func New(opts Options) *Lab { return NewWithService(nil, opts) }

// NewWithService creates a Lab sharing an existing service's worker pool and
// result cache (nil ⇒ a private service). A shared service is not closed by
// the lab's Close.
func NewWithService(svc *simsvc.Service, opts Options) *Lab {
	l := &Lab{
		opts:   opts,
		svc:    svc,
		apps:   make(map[string]*workload.App),
		traces: make(map[traceID]*powertrace.Trace),
	}
	if l.svc == nil {
		sopts := simsvc.DefaultOptions()
		// Full-fidelity sweeps fan out thousands of runs before draining.
		sopts.QueueDepth = 16384
		l.svc = simsvc.New(sopts)
		l.ownsSvc = true
	}
	return l
}

// Close releases the lab's private service (no-op for shared services).
func (l *Lab) Close() {
	if l.ownsSvc {
		l.svc.Close()
	}
}

// Options returns the lab's options.
func (l *Lab) Options() Options { return l.opts }

// Service returns the backing simulation service.
func (l *Lab) Service() *simsvc.Service { return l.svc }

// RunContext executes one experiment by id under ctx: cancellation aborts
// in-flight simulations at their next check and fails the experiment.
// Concurrent RunContext calls with different contexts are not supported (the
// context applies lab-wide while the call runs).
func (l *Lab) RunContext(ctx context.Context, id string) (Renderable, error) {
	l.mu.Lock()
	prev := l.ctx
	l.ctx = ctx
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.ctx = prev
		l.mu.Unlock()
	}()
	return l.Run(id)
}

// context returns the lab's active context.
func (l *Lab) context() context.Context {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx != nil {
		return l.ctx
	}
	return context.Background()
}

// app returns the (cached) workload instance.
func (l *Lab) app(name string) (*workload.App, error) {
	return memo(&l.mu, l.apps, name, func() (*workload.App, error) { return workload.ByName(name, l.opts.scale()) })
}

// trace returns the (cached) power trace.
func (l *Lab) trace(name string, seed uint64) (*powertrace.Trace, error) {
	return memo(&l.mu, l.traces, traceID{name, seed}, func() (*powertrace.Trace, error) { return powertrace.ByName(name, seed) })
}

// memo returns m[k], building and recording it under mu on first use.
func memo[K comparable, V any](mu *sync.Mutex, m map[K]V, k K, build func() (V, error)) (V, error) {
	mu.Lock()
	defer mu.Unlock()
	if v, ok := m[k]; ok {
		return v, nil
	}
	v, err := build()
	if err == nil {
		m[k] = v
	}
	return v, err
}

// configFn derives a concrete config from the default for (app, trace).
type configFn func(base ehs.Config) ehs.Config

// setup is one named configuration. Within an experiment an id names one
// configuration: plans dedupe on it, and errors quote it.
type setup struct {
	id string
	fn configFn
}

// The headline configurations.
var (
	baseline = setup{"base", cfgBase}
	withACC  = setup{"acc", cfgACC}
	withKag  = setup{"kagura", cfgKagura}
)

func cfgBase(c ehs.Config) ehs.Config { return c }

func cfgACC(c ehs.Config) ehs.Config { return c.WithACC(compress.BDI{}) }

func cfgKagura(c ehs.Config) ehs.Config {
	return c.WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
}

// then returns the config fn builds with next applied on top.
func then(fn, next configFn) configFn {
	return func(c ehs.Config) ehs.Config { return next(fn(c)) }
}

// tunedKagura is ACC with BDI plus a Kagura whose default config tune edits.
func tunedKagura(tune func(*kagura.Config)) configFn {
	return func(c ehs.Config) ehs.Config {
		kc := kagura.DefaultConfig()
		tune(&kc)
		return c.WithACC(compress.BDI{}).WithKagura(kc)
	}
}

// runSim runs one simulation; tests wrap it to count simulations.
var runSim = ehs.RunContext

// simID names one simulation: an app on (trace, seed) under setup setupID.
type simID struct {
	app, trace string
	seed       uint64
	setupID    string
}

// planned is one materialized simulation of a plan and, once the plan ran,
// its result.
type planned struct {
	id  simID
	cfg ehs.Config
	res *ehs.Result
}

// plan is the set of simulations an experiment needs. An experiment adds
// all of them first, runs the plan as one fan-out, and then aggregates from
// the results, so no simulation waits for an unrelated one to settle before
// it is even submitted. Each distinct simID is materialized once, in the
// order it was first added.
type plan struct {
	lab  *Lab
	sims []planned
	idx  map[simID]int
	err  error // the first materialization error
}

func (l *Lab) newPlan() *plan { return &plan{lab: l, idx: make(map[simID]int)} }

// add schedules every setup for each app and seed on trace.
func (p *plan) add(apps []string, trace string, setups ...setup) {
	for _, app := range apps {
		for _, seed := range p.lab.opts.seeds() {
			for _, s := range setups {
				p.addOne(simID{app, trace, seed, s.id}, s.fn)
			}
		}
	}
}

func (p *plan) addOne(id simID, fn configFn) {
	if _, ok := p.idx[id]; ok || p.err != nil {
		return
	}
	cfg, err := p.lab.config(id.app, id.trace, id.seed, fn)
	if err != nil {
		p.err = err
		return
	}
	p.idx[id] = len(p.sims)
	p.sims = append(p.sims, planned{id: id, cfg: cfg})
}

// run executes the plan, plus any extra jobs, in one fan-out.
func (p *plan) run(extra ...func() error) error {
	if p.err != nil {
		return p.err
	}
	jobs := make([]func() error, 0, len(extra)+len(p.sims))
	jobs = append(jobs, extra...)
	for i := range p.sims {
		sim := &p.sims[i]
		jobs = append(jobs, func() (err error) {
			sim.res, err = p.lab.do(sim.id, simsvc.ConfigKey(sim.cfg), func(ctx context.Context) (*ehs.Result, error) {
				return runSim(ctx, sim.cfg)
			})
			return err
		})
	}
	return p.lab.warm(jobs)
}

// result returns one simulation's result from a plan that ran.
func (p *plan) result(app, trace string, seed uint64, s setup) *ehs.Result {
	return p.sims[p.idx[simID{app, trace, seed, s.id}]].res
}

// speedup averages variant's speedup over base across the lab's seeds for
// one app.
func (p *plan) speedup(app, trace string, base, variant setup) float64 {
	var sum float64
	seeds := p.lab.opts.seeds()
	for _, seed := range seeds {
		sum += p.result(app, trace, seed, variant).Speedup(p.result(app, trace, seed, base))
	}
	return sum / float64(len(seeds))
}

// simulate runs every setup for apps × the lab's seeds on trace in one
// fan-out.
func (l *Lab) simulate(apps []string, trace string, setups ...setup) (*plan, error) {
	p := l.newPlan()
	p.add(apps, trace, setups...)
	return p, p.run()
}

// config materializes fn over the default config for app on (trace, seed).
func (l *Lab) config(appName, traceName string, seed uint64, fn configFn) (ehs.Config, error) {
	app, err := l.app(appName)
	if err != nil {
		return ehs.Config{}, err
	}
	trace, err := l.trace(traceName, seed)
	if err != nil {
		return ehs.Config{}, err
	}
	return fn(ehs.Default(app, trace)), nil
}

// do runs (or recalls) one simulation through the service under key. Keys
// are canonical config hashes, so runs that build identical configs share
// one execution regardless of which experiment (or which service client)
// asked first.
func (l *Lab) do(id simID, key string, compute func(context.Context) (*ehs.Result, error)) (*ehs.Result, error) {
	res, _, err := l.svc.Do(l.context(), key, compute)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s seed %d: %w", id.app, id.setupID, id.seed, err)
	}
	if !res.Completed {
		return nil, fmt.Errorf("experiments: %s/%s seed %d did not complete", id.app, id.setupID, id.seed)
	}
	return res, nil
}

// warm fans jobs out to the service (whose worker pool bounds parallelism)
// and returns the first error by job index. Identical in-flight submissions
// coalesce in the service, and canceling the lab's context aborts the whole
// fan-out: queued jobs fail fast and running simulations stop at their next
// cancellation check.
func (l *Lab) warm(jobs []func() error) error {
	if len(jobs) == 0 {
		return nil
	}
	if err := l.context().Err(); err != nil {
		return err
	}
	// Per-index error slots + a join before reading keep the fan-out
	// order-independent: the reported error is the first by job index, not
	// whichever goroutine happened to lose the race.
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		//kagura:allow goroutine fan-out joins below; each goroutine writes only its own slot
		go func(i int, job func() error) {
			defer wg.Done()
			errs[i] = job()
		}(i, job)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mean returns the arithmetic mean of xs (0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-quantile (0..1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func pct(v float64) string  { return fmt.Sprintf("%+.2f%%", 100*v) }
func pctU(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// IDs lists every experiment in DESIGN.md order.
func IDs() []string {
	return []string{
		"fig01", "fig03", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "fig27", "fig28", "fig29",
		"fig30", "table2", "table3", "table4", "area",
		// Extensions beyond the paper's evaluation section.
		"estimator", "atomic", "codecs-ext", "replacement",
	}
}

// Run executes one experiment by id.
func (l *Lab) Run(id string) (Renderable, error) {
	switch strings.ToLower(id) {
	case "fig01", "fig1":
		return l.Fig01CacheSizeDilemma()
	case "fig03", "fig3":
		return l.Fig03AnalyticModel()
	case "fig11":
		return l.Fig11PowerTraces()
	case "fig12":
		return l.Fig12CycleConsistency()
	case "fig13":
		return l.Fig13Performance()
	case "fig14":
		return l.Fig14CycleLengths()
	case "fig15":
		return l.Fig15MissRates()
	case "fig16":
		return l.Fig16EnergyBreakdown()
	case "fig17":
		return l.Fig17ArithmeticIntensity()
	case "fig18":
		return l.Fig18CompressionReduction()
	case "fig19":
		return l.Fig19DesignsAndTriggers()
	case "fig20":
		return l.Fig20CacheManagements()
	case "fig21":
		return l.Fig21AdaptationSchemes()
	case "fig22":
		return l.Fig22IncreaseStep()
	case "fig23":
		return l.Fig23Compressors()
	case "fig24":
		return l.Fig24CacheSizes()
	case "fig25":
		return l.Fig25CacheWays()
	case "fig26":
		return l.Fig26BlockSizes()
	case "fig27":
		return l.Fig27MemorySizes()
	case "fig28":
		return l.Fig28MemoryTypes()
	case "fig29":
		return l.Fig29CapacitorSizes()
	case "fig30":
		return l.Fig30PowerTraces()
	case "table2", "tableii":
		return l.TableIIHistoryDepth()
	case "table3", "tableiii":
		return l.TableIIICapLeakage()
	case "table4", "tableiv":
		return l.TableIVCounterBits()
	case "area", "overhead":
		return l.HardwareOverhead()
	case "estimator":
		return l.EstimatorAblation()
	case "atomic":
		return l.AtomicRegions()
	case "codecs-ext":
		return l.ExtendedCompressors()
	case "replacement":
		return l.ReplacementPolicies()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
