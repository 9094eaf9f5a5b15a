package ehs

import (
	"fmt"
	"sync/atomic"

	"kagura/internal/cache"
	"kagura/internal/capacitor"
	"kagura/internal/compress"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// Config fully describes one simulation run.
type Config struct {
	// App is the workload to execute to completion.
	App *workload.App
	// Trace is the ambient power input.
	Trace *powertrace.Trace
	// Capacitor is the energy buffer.
	Capacitor capacitor.Config
	// NVM is the main-memory configuration.
	NVM nvm.Config
	// ICache and DCache describe the two caches. Their Codec fields are
	// overwritten from Codec below.
	ICache, DCache cache.Config
	// Codec enables cache compression (nil ⇒ compressor-free baseline).
	Codec compress.Sizer
	// UseACC gates compression behind the GCP predictor. Ignored when Codec
	// is nil.
	UseACC bool
	// Kagura enables the intermittence-aware controller (nil ⇒ off).
	Kagura *kagura.Config
	// Design selects the crash-consistency architecture.
	Design Design
	// Energy holds the per-event energy constants.
	Energy EnergyParams
	// DecayInterval enables EDBP-style cache decay when > 0 (cycles of
	// idleness before a block is considered dead).
	DecayInterval int64
	// Prefetch enables the IPEX-style intermittence-aware next-line
	// prefetcher.
	Prefetch bool
	// AtomicRegionInstrs models §VII-A's peripheral atomic regions when > 0:
	// every N instructions a region boundary takes an extra checkpoint
	// (registers + dirty cache blocks), JIT checkpointing of program
	// position is disabled inside the region, and a power failure rolls
	// execution back to the region start for re-execution. Applies to the
	// NVSRAMCache design.
	AtomicRegionInstrs int64
	// Oracle, when non-nil, runs the ideal intermittence-aware compressor:
	// in OracleRecord mode the run logs each compression's usefulness; in
	// OracleReplay mode compression decisions follow the recorded log
	// (Fig 13's "ideal" series).
	Oracle *Oracle
	// CollectCycleLog retains per-power-cycle records (Figs 12/14); off by
	// default to save memory.
	CollectCycleLog bool
	// MaxSimSeconds aborts runs whose simulated time exceeds this bound
	// (default 120s of trace time).
	MaxSimSeconds float64
}

// Default returns the paper's Table I configuration for the given app and
// trace: 256B 2-way I/D caches with 32B blocks, 4.7µF capacitor, 16MB ReRAM,
// no compression.
func Default(app *workload.App, trace *powertrace.Trace) Config {
	return Config{
		App:           app,
		Trace:         trace,
		Capacitor:     capacitor.Default(),
		NVM:           nvm.DefaultConfig(),
		ICache:        cache.DefaultConfig("ICache", nil),
		DCache:        cache.DefaultConfig("DCache", nil),
		Design:        NVSRAMCache,
		Energy:        DefaultEnergy(),
		MaxSimSeconds: 120,
	}
}

// WithACC returns a copy with the given compressor managed by ACC.
func (c Config) WithACC(codec compress.Sizer) Config {
	c.Codec = codec
	c.UseACC = true
	return c
}

// WithKagura returns a copy with Kagura layered on top.
func (c Config) WithKagura(kcfg kagura.Config) Config {
	c.Kagura = &kcfg
	return c
}

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	if c.App == nil {
		return fmt.Errorf("ehs: config has no workload")
	}
	if c.Trace == nil || c.Trace.Len() == 0 {
		return fmt.Errorf("ehs: config has no power trace")
	}
	if err := c.Capacitor.Validate(); err != nil {
		return err
	}
	if c.ICache.BlockSize != c.DCache.BlockSize {
		return fmt.Errorf("ehs: ICache/DCache block sizes differ (%d vs %d)",
			c.ICache.BlockSize, c.DCache.BlockSize)
	}
	if err := c.ICache.Validate(); err != nil {
		return err
	}
	if err := c.DCache.Validate(); err != nil {
		return err
	}
	if c.MaxSimSeconds <= 0 {
		return fmt.Errorf("ehs: non-positive MaxSimSeconds")
	}
	return nil
}

// OracleMode distinguishes the two ideal-compressor phases.
type OracleMode int

const (
	// OracleRecord logs whether each compression turned out useful.
	OracleRecord OracleMode = iota
	// OracleReplay consults the log to compress only usefully.
	OracleReplay
)

// Oracle implements the paper's ideal intermittence-aware compressor
// (§VIII-C): a first run (the paper uses ACC+Kagura) records, for every
// compression operation, whether the compressed block contributed a hit
// before being lost to eviction or power failure; a second run performs only
// the compressions that were recorded as useful. Keys combine the block
// address with a coarse time bucket of the fill instruction, so record and
// replay stay aligned even as the decisions perturb the exact event stream.
type Oracle struct {
	Mode   OracleMode
	id     uint64
	useful map[oracleKey]bool
}

// oracleSeq issues process-unique oracle IDs; see Oracle.ID.
var oracleSeq atomic.Uint64

// oracleBucketShift coarsens fill times to 4096-instruction buckets; decision
// drift between the record and replay runs is far smaller than a bucket.
const oracleBucketShift = 12

type oracleKey struct {
	bucket int64
	addr   uint32
}

// NewOracle returns an empty oracle in record mode.
func NewOracle() *Oracle {
	return &Oracle{Mode: OracleRecord, id: oracleSeq.Add(1), useful: make(map[oracleKey]bool)}
}

// ID returns the oracle's process-unique identity, assigned at creation.
// Cache keys fingerprint oracles with it rather than the pointer value, which
// the allocator can reuse after GC.
func (o *Oracle) ID() uint64 { return o.id }

// Replay switches the oracle to replay mode (after a record run).
func (o *Oracle) Replay() *Oracle {
	o.Mode = OracleReplay
	return o
}

// markUseful records that the compression performed at (instr, addr) paid off.
func (o *Oracle) markUseful(instr int64, addr uint32) {
	o.useful[oracleKey{instr >> oracleBucketShift, addr}] = true
}

// wasUseful reports the recorded outcome (false for never-seen keys: when in
// doubt, don't compress — that is what makes the oracle an upper bound on
// avoided waste).
func (o *Oracle) wasUseful(instr int64, addr uint32) bool {
	return o.useful[oracleKey{instr >> oracleBucketShift, addr}]
}

// UsefulCount returns how many compressions were recorded as useful.
func (o *Oracle) UsefulCount() int { return len(o.useful) }
