// Package kagura is a from-scratch reproduction of "Intermittence-Aware
// Cache Compression" (HPCA 2026): the Kagura controller, the adaptive cache
// compression (ACC) baseline it extends, and the complete energy-harvesting-
// system (EHS) simulation substrate the paper evaluates on — power traces,
// capacitor energy buffer, compressed SRAM caches, NVM main memory, JIT
// checkpointing, and the 20-application workload suite.
//
// # Quick start
//
//	app, _ := kagura.Workload("jpeg", 1.0)
//	trace, _ := kagura.Trace("RFHome", 1)
//
//	base := kagura.DefaultConfig(app, trace)             // no compression
//	withKagura := base.WithACC(kagura.BDI{}).
//		WithKagura(kagura.DefaultController())           // ACC + Kagura
//
//	b, _ := kagura.Run(base)
//	k, _ := kagura.Run(withKagura)
//	fmt.Printf("speedup %+.2f%%\n", 100*k.Speedup(b))
//
// # Reproducing the paper
//
//	lab := kagura.NewLab(kagura.DefaultOptions())
//	res, _ := lab.Run("fig13")
//	fmt.Print(res.Render())
//
// See DESIGN.md for the system inventory and the experiment index, and
// EXPERIMENTS.md for measured-vs-paper results.
package kagura

import (
	"io"
	"net/http"

	"kagura/internal/campaign"
	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/experiments"
	"kagura/internal/journal"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/simsvc"
	"kagura/internal/workload"
)

// Simulation configuration and results.
type (
	// SimConfig fully describes one simulation run.
	SimConfig = ehs.Config
	// Result is everything a run produces: timing, energy breakdown, cache
	// statistics, power-cycle log.
	Result = ehs.Result
	// Design selects the EHS crash-consistency architecture.
	Design = ehs.Design
)

// EHS designs (§VIII-H1).
const (
	NVSRAMCache = ehs.NVSRAMCache
	SweepCache  = ehs.SweepCache
)

// Controller configuration.
type (
	// ControllerConfig parameterizes the Kagura controller.
	ControllerConfig = kagura.Config
	// Policy is the R_thres adaptation policy (AIMD default).
	Policy = kagura.Policy
	// Trigger selects memory-count or voltage triggering.
	Trigger = kagura.Trigger
)

// Adaptation policies and triggers (§VIII-H2, H4).
const (
	AIMD = kagura.AIMD
	MIAD = kagura.MIAD
	AIAD = kagura.AIAD
	MIMD = kagura.MIMD

	TriggerMem     = kagura.TriggerMem
	TriggerVoltage = kagura.TriggerVoltage
)

// Compression codecs (§II-B).
type (
	// Codec is a lossless cache-block compressor.
	Codec = compress.Codec
	// BDI is Base-Delta-Immediate (the paper's default).
	BDI = compress.BDI
)

// Workload modeling.
type (
	// App is a synthetic application: a pure function from instruction index
	// to committed instruction.
	App = workload.App
	// Region is a data region with a value class.
	Region = workload.Region
	// Phase is a loop nest of an App.
	Phase = workload.Phase
	// Slot is one position in a loop body.
	Slot = workload.Slot
)

// Value classes for custom workloads.
const (
	ClassZeros  = workload.ClassZeros
	ClassNarrow = workload.ClassNarrow
)

// Access patterns and slot kinds for custom workloads.
const (
	PatSeq = workload.PatSeq
	PatHot = workload.PatHot

	Arith = workload.Arith
	Load  = workload.Load
	Store = workload.Store
)

// Power traces.
type (
	// PowerTrace is an ambient power trace (one sample per 10µs).
	PowerTrace = powertrace.Trace
)

// Experiment harness.
type (
	// Lab runs paper experiments with memoized simulations.
	Lab = experiments.Lab
	// LabOptions configures experiment fidelity.
	LabOptions = experiments.Options
	// ExperimentTable is a rendered experiment result.
	ExperimentTable = experiments.Table
)

// Simulation service (internal/simsvc): a concurrent scheduler with a
// content-addressed result cache, serving both programmatic clients (the Lab)
// and the kagura-serve HTTP API.
type (
	// SimService schedules simulation jobs on a bounded worker pool and
	// memoizes results by canonical configuration hash.
	SimService = simsvc.Service
	// ServiceOptions sizes the service (workers, queue, timeouts).
	ServiceOptions = simsvc.Options
	// RunSpec is the JSON description of one run (HTTP body, kagura-sim
	// -json).
	RunSpec = simsvc.RunSpec
	// RunResult is the JSON result schema shared by the HTTP API and
	// kagura-sim -json.
	RunResult = simsvc.RunResult
	// RunComparison relates a run to its compressor-free baseline.
	RunComparison = simsvc.Comparison
	// ForkPoint warm-starts a batch from a shared checkpointed prefix
	// (SimService.SubmitBatchFork, POST /v1/batch forkPoint field).
	ForkPoint = simsvc.ForkPoint
)

// DefaultConfig returns the paper's Table I system for an app and trace:
// 256B 2-way I/D caches with 32B blocks, 4.7µF capacitor, 16MB ReRAM,
// NVSRAMCache checkpointing, no compression.
func DefaultConfig(app *App, trace *PowerTrace) SimConfig {
	return ehs.Default(app, trace)
}

// DefaultController returns the paper's default Kagura settings (AIMD, 10%
// step, 2-bit counter, single-cycle history, memory trigger).
func DefaultController() ControllerConfig { return kagura.DefaultConfig() }

// Run executes one simulation to completion.
func Run(cfg SimConfig) (*Result, error) { return ehs.Run(cfg) }

// NewService creates a simulation service (see cmd/kagura-serve for the HTTP
// frontend). Close it when done.
func NewService(opts ServiceOptions) *SimService { return simsvc.New(opts) }

// DefaultServiceOptions returns production service defaults.
func DefaultServiceOptions() ServiceOptions { return simsvc.DefaultOptions() }

// ServiceHandler returns the service's HTTP API (POST /v1/run, POST
// /v1/batch, GET /v1/jobs/{id}, GET /v1/workloads, GET /healthz, GET
// /readyz, GET /metrics).
func ServiceHandler(svc *SimService) http.Handler { return simsvc.NewHandler(svc) }

// Campaign engine (internal/campaign): declarative design-space sweeps over
// RunSpec knobs, executed as fork-batches against a SimService, with
// Pareto-frontier extraction and byte-stable JSON/CSV export (DESIGN.md §13).
type (
	// CampaignSpec is the JSON description of one sweep campaign.
	CampaignSpec = campaign.Spec
	// CampaignAxis is one named sweep dimension of a campaign.
	CampaignAxis = campaign.Axis
	// CampaignObjective names the metric a campaign search optimizes.
	CampaignObjective = campaign.Objective
	// CampaignRunner executes campaigns synchronously on a SimService.
	CampaignRunner = campaign.Runner
	// CampaignReport is a finished campaign's deterministic result.
	CampaignReport = campaign.Report
	// CampaignPoint is one evaluated point of a campaign report.
	CampaignPoint = campaign.PointReport
	// CampaignManager tracks asynchronously-running campaigns (the HTTP API).
	CampaignManager = campaign.Manager
	// CampaignStatus is a campaign's wire-level snapshot.
	CampaignStatus = campaign.Status
)

// DecodeCampaignSpec reads, bounds-checks, and validates a campaign spec.
func DecodeCampaignSpec(r io.Reader) (*CampaignSpec, error) { return campaign.DecodeSpec(r) }

// CampaignParams lists the sweepable RunSpec knobs, sorted.
func CampaignParams() []string { return campaign.ParamNames() }

// NewCampaignManager creates a manager executing campaigns on svc. Close it
// before closing the service.
func NewCampaignManager(svc *SimService) *CampaignManager { return campaign.NewManager(svc) }

// Journal is the durable crash journal (internal/journal): an append-only,
// CRC-framed intent log the service and campaign manager write through, so a
// killed process can replay unsettled jobs and resume interrupted campaigns
// on restart (DESIGN.md §14).
type Journal = journal.Journal

// OpenJournal opens (or creates) the crash journal under dir, recovering
// torn tails and quarantining corrupt segments. The caller owns it: close it
// after the service and campaign manager that write through it.
func OpenJournal(dir string) (*Journal, error) { return journal.Open(dir) }

// NewCampaignManagerJournaled is NewCampaignManager with crash journaling:
// campaigns checkpoint each wave through jnl and ResumeFromJournal relaunches
// whatever a previous process left unfinished.
func NewCampaignManagerJournaled(svc *SimService, jnl *Journal) *CampaignManager {
	return campaign.NewManagerJournaled(svc, jnl)
}

// CampaignHandler layers the campaign API (POST /v1/campaigns, GET
// /v1/campaigns/{id}, combined /metrics) over the service handler.
func CampaignHandler(m *CampaignManager, base http.Handler) http.Handler {
	return campaign.NewHandler(m, base)
}

// NewRunResult packages a raw simulation result in the service's wire schema
// (kagura-sim -json uses this to match the HTTP API byte-for-byte).
func NewRunResult(spec *RunSpec, key string, cached bool, res *Result) *RunResult {
	return simsvc.NewRunResult(spec, key, cached, res)
}

// Workload returns one of the 20 evaluation applications at the given length
// scale (1.0 ≈ 600k instructions).
func Workload(name string, scale float64) (*App, error) {
	return workload.ByName(name, scale)
}

// Workloads lists the application names in evaluation order.
func Workloads() []string { return workload.Names() }

// WorkloadFromJSON builds a custom application from a JSON definition (see
// internal/workload's FromJSON for the schema; kagura-sim's -workload flag
// consumes the same format).
func WorkloadFromJSON(r io.Reader) (*App, error) { return workload.FromJSON(r) }

// Trace returns a built-in ambient power trace ("RFHome", "Solar",
// "Thermal") synthesized from the given seed.
func Trace(name string, seed uint64) (*PowerTrace, error) {
	return powertrace.ByName(name, seed)
}

// Compressor returns a codec by name ("BDI", "FPC", "C-Pack", "DZC").
func Compressor(name string) (Codec, error) { return compress.ByName(name) }

// Compressors lists the codec names of the paper's Fig 23 study.
func Compressors() []string { return compress.Names() }

// NewLab creates an experiment lab backed by its own simulation service.
func NewLab(opts LabOptions) *Lab { return experiments.New(opts) }

// DefaultOptions returns full-fidelity experiment options (all apps, three
// trace seeds, full-length workloads).
func DefaultOptions() LabOptions { return experiments.Defaults() }

// QuickOptions returns reduced experiment options for fast smoke runs.
func QuickOptions() LabOptions { return experiments.Quick() }

// Experiments lists the experiment ids in DESIGN.md order.
func Experiments() []string { return experiments.IDs() }
