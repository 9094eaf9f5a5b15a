package simsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"kagura/internal/cache"
	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// RunSpec is the wire-level description of one simulation run: the job body
// of POST /v1/run, one element of POST /v1/batch, and the schema behind
// kagura-sim's -json flag. The zero value of every optional field selects the
// paper's default, so `{"app":"jpeg"}` is a complete spec.
type RunSpec struct {
	// App names a built-in workload (see GET /v1/workloads). Mutually
	// exclusive with Workload.
	App string `json:"app,omitempty"`
	// Workload is an inline custom application in the JSON schema of
	// workload.FromJSON (kagura-sim's -workload file format).
	Workload json.RawMessage `json:"workload,omitempty"`
	// Scale multiplies the workload length (default 1.0 ≈ 600k instructions).
	// Ignored for inline Workload definitions, which fix their own length.
	Scale float64 `json:"scale,omitempty"`
	// Trace names the ambient power source (default "RFHome").
	Trace string `json:"trace,omitempty"`
	// Seed selects the power-trace seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Codec enables cache compression ("" ⇒ compressor-free baseline).
	Codec string `json:"codec,omitempty"`
	// ACC gates compression behind the GCP predictor.
	ACC bool `json:"acc,omitempty"`
	// Kagura layers the intermittence-aware controller on top.
	Kagura bool `json:"kagura,omitempty"`
	// Policy is the R_thres adaptation policy (default "AIMD").
	Policy string `json:"policy,omitempty"`
	// Trigger is the Kagura trigger, "mem" or "voltage" (default "mem").
	Trigger string `json:"trigger,omitempty"`
	// IncreaseStep overrides the controller's additive increase fraction
	// when > 0 (default 0.10; §VIII-H5 sweeps 0.05–0.20). Requires Kagura.
	IncreaseStep float64 `json:"increaseStep,omitempty"`
	// CounterBits overrides the controller's confidence-counter width when
	// > 0 (default 2; Table IV sweeps 1–3). Requires Kagura.
	CounterBits int `json:"counterBits,omitempty"`
	// Design selects the crash-consistency architecture (default
	// "NVSRAMCache").
	Design string `json:"design,omitempty"`
	// DecayInterval enables EDBP cache decay when > 0 (cycles).
	DecayInterval int64 `json:"decayInterval,omitempty"`
	// Prefetch enables the IPEX-style next-line prefetcher.
	Prefetch bool `json:"prefetch,omitempty"`
	// CycleLog retains the per-power-cycle log in the result.
	CycleLog bool `json:"cycleLog,omitempty"`
	// MaxSimSeconds overrides the simulated-time safety cutoff (default 120).
	MaxSimSeconds float64 `json:"maxSimSeconds,omitempty"`
	// TimeoutSeconds bounds the job's wall-clock execution (0 ⇒ the
	// service's default timeout). Not part of the cache identity.
	TimeoutSeconds float64 `json:"timeoutSeconds,omitempty"`
}

// Normalize validates the spec and returns a canonical copy: defaults
// applied, names rewritten to their canonical spelling, and inline workloads
// re-serialized deterministically. Two specs describing the same simulation
// normalize to identical values, which is what makes Key content-addressed.
func (sp RunSpec) Normalize() (RunSpec, error) {
	out := sp
	if sp.App == "" && len(sp.Workload) == 0 {
		return out, fmt.Errorf("simsvc: spec needs an app or an inline workload")
	}
	if sp.App != "" && len(sp.Workload) > 0 {
		return out, fmt.Errorf("simsvc: app and workload are mutually exclusive")
	}
	// Every comparison with NaN is false, so the range checks below would
	// pass a NaN through; reject non-finite values before any of them.
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"scale", sp.Scale}, {"increaseStep", sp.IncreaseStep}, {"maxSimSeconds", sp.MaxSimSeconds}, {"timeoutSeconds", sp.TimeoutSeconds}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return out, fmt.Errorf("simsvc: %s %g is not finite", f.name, f.v)
		}
	}
	if out.Scale == 0 { //kagura:allow floateq exact zero marks "field unset" in the wire format
		out.Scale = 1
	}
	if out.Scale < 0 {
		return out, fmt.Errorf("simsvc: negative scale %g", out.Scale)
	}
	if out.Trace == "" {
		out.Trace = "RFHome"
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.MaxSimSeconds < 0 || out.TimeoutSeconds < 0 {
		return out, fmt.Errorf("simsvc: negative timeout")
	}

	if len(sp.Workload) > 0 {
		// Parse and re-serialize so formatting differences (whitespace, field
		// order the encoder normalizes) don't split the cache.
		app, err := workload.FromJSON(bytes.NewReader(sp.Workload))
		if err != nil {
			return out, fmt.Errorf("simsvc: inline workload: %w", err)
		}
		var buf bytes.Buffer
		if err := app.ToJSON(&buf); err != nil {
			return out, err
		}
		out.Workload = json.RawMessage(buf.Bytes())
		out.Scale = 1 // length is fixed by the definition
	} else if _, err := workload.ByName(sp.App, 0.01); err != nil {
		return out, fmt.Errorf("simsvc: %w", err)
	}

	trace, _, err := powertrace.Lookup(out.Trace)
	if err != nil {
		return out, fmt.Errorf("simsvc: %w", err)
	}
	out.Trace = trace

	if sp.Codec != "" {
		codec, err := compress.ByName(sp.Codec)
		if err != nil {
			return out, fmt.Errorf("simsvc: %w", err)
		}
		out.Codec = codec.Name()
	} else if sp.ACC {
		return out, fmt.Errorf("simsvc: acc requires a codec")
	}

	design, err := designByName(sp.Design)
	if err != nil {
		return out, err
	}
	out.Design = design.String()

	if sp.Kagura {
		if out.Policy == "" {
			out.Policy = "AIMD"
		}
		pol, err := kagura.PolicyByName(out.Policy)
		if err != nil {
			return out, fmt.Errorf("simsvc: %w", err)
		}
		out.Policy = pol.String()
		out.Trigger, err = canonicalTrigger(sp.Trigger)
		if err != nil {
			return out, err
		}
		if sp.IncreaseStep < 0 || sp.IncreaseStep >= 1 {
			return out, fmt.Errorf("simsvc: increase step %g outside [0,1)", sp.IncreaseStep)
		}
		if sp.CounterBits < 0 || sp.CounterBits > 8 {
			return out, fmt.Errorf("simsvc: counter bits %d outside 0..8", sp.CounterBits)
		}
	} else {
		if sp.Policy != "" || sp.Trigger != "" {
			return out, fmt.Errorf("simsvc: policy/trigger require kagura")
		}
		if sp.IncreaseStep > 0 || sp.CounterBits > 0 {
			return out, fmt.Errorf("simsvc: increaseStep/counterBits require kagura")
		}
		if sp.IncreaseStep < 0 || sp.CounterBits < 0 {
			return out, fmt.Errorf("simsvc: negative increaseStep/counterBits")
		}
	}
	if out.DecayInterval < 0 {
		return out, fmt.Errorf("simsvc: negative decay interval")
	}
	return out, nil
}

// designByName resolves a design name case-insensitively ("" ⇒ NVSRAMCache).
func designByName(name string) (ehs.Design, error) {
	if name == "" {
		return ehs.NVSRAMCache, nil
	}
	for _, d := range ehs.Designs() {
		if strings.EqualFold(name, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("simsvc: unknown design %q", name)
}

func canonicalTrigger(name string) (string, error) {
	switch strings.ToLower(name) {
	case "", "mem", "memory":
		return "mem", nil
	case "vol", "voltage":
		return "voltage", nil
	}
	return "", fmt.Errorf("simsvc: unknown trigger %q", name)
}

// Key returns the spec's content-addressed cache key: a SHA-256 over the
// canonical form, excluding execution-control fields (TimeoutSeconds) that
// don't change what the simulation computes.
func (sp RunSpec) Key() (string, error) {
	norm, err := sp.Normalize()
	if err != nil {
		return "", err
	}
	return norm.key()
}

// key is Key for a spec that is already normalized.
func (sp RunSpec) key() (string, error) {
	sp.TimeoutSeconds = 0
	blob, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Config materializes the spec into a runnable simulator configuration.
func (sp RunSpec) Config() (ehs.Config, error) {
	norm, err := sp.Normalize()
	if err != nil {
		return ehs.Config{}, err
	}
	var app *workload.App
	if len(norm.Workload) > 0 {
		app, err = workload.FromJSON(bytes.NewReader(norm.Workload))
	} else {
		app, err = workload.ByName(norm.App, norm.Scale)
	}
	if err != nil {
		return ehs.Config{}, err
	}
	trace, err := powertrace.ByName(norm.Trace, norm.Seed)
	if err != nil {
		return ehs.Config{}, err
	}
	cfg := ehs.Default(app, trace)
	if cfg.Design, err = designByName(norm.Design); err != nil {
		return ehs.Config{}, err
	}
	if norm.Codec != "" {
		codec, err := compress.ByName(norm.Codec)
		if err != nil {
			return ehs.Config{}, err
		}
		cfg.Codec = codec
		cfg.UseACC = norm.ACC
	}
	if norm.Kagura {
		kcfg := kagura.DefaultConfig()
		pol, err := kagura.PolicyByName(norm.Policy)
		if err != nil {
			return ehs.Config{}, err
		}
		kcfg.Policy = pol
		if norm.Trigger == "voltage" {
			kcfg.Trigger = kagura.TriggerVoltage
		}
		if norm.IncreaseStep > 0 {
			kcfg.IncreaseStep = norm.IncreaseStep
		}
		if norm.CounterBits > 0 {
			kcfg.CounterBits = norm.CounterBits
		}
		cfg.Kagura = &kcfg
	}
	cfg.DecayInterval = norm.DecayInterval
	cfg.Prefetch = norm.Prefetch
	cfg.CollectCycleLog = norm.CycleLog
	if norm.MaxSimSeconds > 0 {
		cfg.MaxSimSeconds = norm.MaxSimSeconds
	}
	return cfg, nil
}

// ConfigKey returns a content-addressed cache key for an arbitrary simulator
// configuration: a SHA-256 over every behavior-determining input — the full
// workload definition, the power trace's identity (which names its samples
// without reading them), and all architectural parameters. Two configs with
// equal keys produce byte-identical results
// (runs are deterministic), which is what lets the service memoize across
// clients that build configs programmatically rather than via RunSpec. The
// hashing itself lives on ehs.Config so the checkpoint subsystem can stamp
// snapshots with the same identity.
func ConfigKey(cfg ehs.Config) string {
	return cfg.Fingerprint()
}

// EnergyJSON is the wire form of the six-way energy breakdown, in joules.
type EnergyJSON struct {
	Compress   float64 `json:"compress"`
	Decompress float64 `json:"decompress"`
	CacheOther float64 `json:"cacheOther"`
	Memory     float64 `json:"memory"`
	Checkpoint float64 `json:"checkpoint"`
	Others     float64 `json:"others"`
	Total      float64 `json:"total"`
}

// CacheJSON is the wire form of one cache's event counters.
type CacheJSON struct {
	Accesses       int64   `json:"accesses"`
	Hits           int64   `json:"hits"`
	Misses         int64   `json:"misses"`
	MissRate       float64 `json:"missRate"`
	Compressions   int64   `json:"compressions"`
	Decompressions int64   `json:"decompressions"`
	Evictions      int64   `json:"evictions"`
	ShadowHits     int64   `json:"shadowHits"`
}

// CycleJSON is the wire form of one power-cycle record.
type CycleJSON struct {
	Committed int64   `json:"committed"`
	Loads     int64   `json:"loads"`
	Stores    int64   `json:"stores"`
	Cycles    int64   `json:"cycles"`
	CPI       float64 `json:"cpi"`
}

// Comparison reports a run against the compressor-free baseline (kagura-sim
// -compare -json).
type Comparison struct {
	Speedup         float64 `json:"speedup"`
	EnergyReduction float64 `json:"energyReduction"`
}

// RunResult is the JSON result schema shared by the HTTP API and kagura-sim
// -json.
type RunResult struct {
	Spec   *RunSpec `json:"spec,omitempty"`
	Key    string   `json:"key,omitempty"`
	Cached bool     `json:"cached,omitempty"`
	// WarmStartFromCycle records warm-start provenance: the base-run cycle
	// this job's simulation resumed from (0 for cold runs).
	WarmStartFromCycle int64 `json:"warmStartFromCycle,omitempty"`

	Completed            bool        `json:"completed"`
	ExecSeconds          float64     `json:"execSeconds"`
	Committed            int64       `json:"committed"`
	Executed             int64       `json:"executed"`
	PowerCycles          int64       `json:"powerCycles"`
	AvgCommittedPerCycle float64     `json:"avgCommittedPerCycle"`
	Energy               EnergyJSON  `json:"energy"`
	ICache               CacheJSON   `json:"icache"`
	DCache               CacheJSON   `json:"dcache"`
	Compressions         int64       `json:"compressions"`
	Decompressions       int64       `json:"decompressions"`
	KaguraRMEntries      int64       `json:"kaguraRMEntries,omitempty"`
	Prefetches           int64       `json:"prefetches,omitempty"`
	CheckpointedBlocks   int64       `json:"checkpointedBlocks,omitempty"`
	Cycles               []CycleJSON `json:"cycles,omitempty"`

	VsBaseline *Comparison `json:"vsBaseline,omitempty"`
}

// NewRunResult converts a simulator result into the wire schema. spec may be
// nil for programmatic jobs.
func NewRunResult(spec *RunSpec, key string, cached bool, res *ehs.Result) *RunResult {
	out := &RunResult{
		Spec:                 spec,
		Key:                  key,
		Cached:               cached,
		Completed:            res.Completed,
		ExecSeconds:          res.ExecSeconds,
		Committed:            res.Committed,
		Executed:             res.Executed,
		PowerCycles:          res.PowerCycles,
		AvgCommittedPerCycle: res.AvgCommittedPerCycle(),
		Energy: EnergyJSON{
			Compress:   res.Energy.Compress,
			Decompress: res.Energy.Decompress,
			CacheOther: res.Energy.CacheOther,
			Memory:     res.Energy.Memory,
			Checkpoint: res.Energy.Checkpoint,
			Others:     res.Energy.Others,
			Total:      res.Energy.Total(),
		},
		ICache:             cacheJSON(res.ICache),
		DCache:             cacheJSON(res.DCache),
		Compressions:       res.Compressions,
		Decompressions:     res.Decompressions,
		KaguraRMEntries:    res.KaguraRMEntries,
		Prefetches:         res.Prefetches,
		CheckpointedBlocks: res.CheckpointedBlocks,
	}
	for _, c := range res.Cycles {
		out.Cycles = append(out.Cycles, CycleJSON{
			Committed: c.Committed, Loads: c.Loads, Stores: c.Stores,
			Cycles: c.Cycles, CPI: c.CPI(),
		})
	}
	return out
}

func cacheJSON(s cache.Stats) CacheJSON {
	return CacheJSON{
		Accesses:       s.Accesses,
		Hits:           s.Hits,
		Misses:         s.Misses,
		MissRate:       s.MissRate(),
		Compressions:   s.Compressions,
		Decompressions: s.Decompressions,
		Evictions:      s.Evictions,
		ShadowHits:     s.ShadowHits,
	}
}
