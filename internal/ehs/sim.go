// Package ehs is the whole-system simulator: it binds the power trace,
// capacitor, in-order core, compressed caches, NVM main memory, the ACC
// predictor, and the Kagura controller into one instruction-level,
// cycle-accounted model of an energy harvesting system.
//
// The execution model (DESIGN.md §4): the core commits one instruction per
// step; every step fetches through the ICache, memory ops access the DCache,
// misses pay NVM latency and energy, and compression events pay the Table I
// costs. Time advances in 5ns cycles; the trace charges the capacitor
// continuously; when the buffer drops to V_ckpt the design's crash-
// consistency mechanism runs and the system sleeps until V_rst. Performance
// is wall-clock trace time to program completion, so saved energy turns into
// saved recharge dead time — exactly the paper's mechanism.
package ehs

import (
	"context"
	"fmt"
	"math"

	"kagura/internal/acc"
	"kagura/internal/cache"
	"kagura/internal/capacitor"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
	"kagura/internal/workload"
)

// Simulator holds the mutable state of one run.
type Simulator struct {
	cfg Config

	cap  *capacitor.State
	mem  *nvm.Memory
	ic   *cache.Cache
	dc   *cache.Cache
	pred *acc.Predictor
	kag  *kagura.Controller

	res Result

	cur workload.Cursor // sequential instruction reader (self-heals on rollback)

	time          int64 // absolute cycles (drives the trace)
	poweredCycles int64 // cycles spent powered (for CPI accounting)
	pos           int64 // next instruction index (program position)
	lastBoundary  int64 // SweepCache region start

	// Current power-cycle tracking.
	curCommitted, curLoads, curStores int64
	curStartPowered                   int64

	// Oracle bookkeeping: resident compressed blocks → compression event key.
	tracked map[uint64]oracleKey

	budget    float64 // capacitor operating budget, for normalized headroom
	monitored bool    // a voltage monitor is drawing power
	blockBuf  []byte

	// Codec constants, cached at construction: the inner loop consults these
	// per event, and an interface method call per instruction is measurable.
	compLat     int
	decompLat   int
	compScale   float64
	decompScale float64

	// Per-event energies in joules, precomputed from the config once (the
	// products are bit-identical to computing them inline, just hoisted):
	// pipeline per instruction, cache access, compress/decompress per block
	// (codec scale folded in), and one NvMR store persist.
	pipeJ    float64
	accessJ  float64
	compJ    float64
	decompJ  float64
	persistJ float64

	// Block-size decomposition for the (shared) block size: mask path when
	// the size is a power of two (every shipped geometry), div fallback kept
	// for odd sizes. A uint32 modulo by a non-constant is a hardware divide
	// on the per-access path otherwise.
	blockPow2 bool
	blockMask uint32

	// Voltage-trigger gate: OnVoltageHeadroom ignores the sample unless the
	// controller runs the voltage trigger, so the per-instruction headroom
	// division is skipped entirely for every other trigger.
	voltTrig bool

	// Trace-interval cache: harvested power and end cycle of the interval
	// containing s.time, valid while s.time stays in
	// [traceIntEnd-TraceIntervalCycles, traceIntEnd). advance and sleep
	// re-derive it (two integer divisions and a trace lookup) only when
	// time crosses an interval boundary or a restore moves it arbitrarily.
	traceIntEnd int64
	tracePower  float64

	// accRes is the reusable access-result record (see cache.AccessInto).
	accRes cache.Result

	// Static leakage watts, hoisted out of advance: otherW never changes;
	// cacheW is constant unless decay power-gates dead lines.
	otherW      float64
	cacheWConst float64

	// fetchBufBase models the fetch path's line buffer: the most recently
	// decompressed ICache block. Sequential fetches within one block
	// decompress once (on entry), not once per instruction — without this,
	// high-latency codecs like FPC would pay their decompression on every
	// fetch, which no real front end does.
	fetchBufBase  uint32
	fetchBufValid bool

	maxCycles int64
}

// New constructs a simulator for the configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.ICache.Codec = cfg.Codec
	cfg.DCache.Codec = cfg.Codec

	cap_, err := capacitor.New(cfg.Capacitor)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		cap:      cap_,
		mem:      nvm.New(cfg.NVM, cfg.DCache.BlockSize, cfg.App.FillBlock),
		ic:       cache.New(cfg.ICache),
		dc:       cache.New(cfg.DCache),
		budget:   cfg.Capacitor.OperatingBudget(),
		blockBuf: make([]byte, cfg.DCache.BlockSize),
	}
	s.cur = workload.NewCursor(cfg.App)
	s.cacheWConst = cfg.Energy.CacheLeakWattsPerByte * float64(cfg.ICache.SizeBytes+cfg.DCache.SizeBytes)
	s.compScale, s.decompScale = 1, 1
	if cfg.Codec != nil {
		s.compLat = cfg.Codec.CompressLatency()
		s.decompLat = cfg.Codec.DecompressLatency()
		s.compScale = cfg.Codec.CompressEnergyScale()
		s.decompScale = cfg.Codec.DecompressEnergyScale()
	}
	if bs := uint32(cfg.DCache.BlockSize); bs&(bs-1) == 0 {
		s.blockPow2 = true
		s.blockMask = bs - 1
	}
	s.pipeJ = pj(cfg.Energy.PipelinePJ)
	s.accessJ = pj(cfg.Energy.CacheAccessPJ)
	s.compJ = pj(cfg.Energy.CompressPJ * s.compScale)
	s.decompJ = pj(cfg.Energy.DecompressPJ * s.decompScale)
	s.persistJ = cfg.NVM.WriteEnergy(nvmrPersistBytes)
	if cfg.Codec != nil && cfg.UseACC {
		// GCP weights are energy-derived, as in the analytical model of §III:
		// an avoided miss saves one NVM block fetch, a penalized hit wastes
		// one decompression.
		missW := int(cfg.NVM.ReadEnergy(cfg.DCache.BlockSize) /
			(pj(cfg.Energy.DecompressPJ) * cfg.Codec.DecompressEnergyScale()))
		if missW < 2 {
			missW = 2
		}
		if missW > 1000 {
			missW = 1000
		}
		s.pred = acc.New(acc.DefaultConfig(missW, 1))
	}
	if cfg.Kagura != nil {
		s.kag = kagura.New(*cfg.Kagura)
	}
	if cfg.Oracle != nil && cfg.Oracle.Mode == OracleRecord {
		s.tracked = make(map[uint64]oracleKey)
	}
	// The monitor draws power when the design ships one, or when Kagura's
	// voltage trigger forces one onto a monitor-free design (§VIII-H2).
	s.monitored = cfg.Design.HasMonitor() ||
		(cfg.Kagura != nil && cfg.Kagura.Trigger == kagura.TriggerVoltage)
	s.voltTrig = s.kag != nil && cfg.Kagura.Trigger == kagura.TriggerVoltage
	s.otherW = cfg.Energy.CoreLeakWatts
	if s.monitored {
		s.otherW += cfg.Energy.MonitorWatts
	}
	s.maxCycles = int64(cfg.MaxSimSeconds / CyclePeriod)
	return s, nil
}

// Run executes the configured program to completion (or the safety cutoff)
// and returns the result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// ctxCheckInstrs bounds how many instructions execute between cancellation
// checks. The check is a non-blocking select, so the steady-state cost is one
// branch per instruction plus one select per 4096 — unmeasurable against the
// work a step does.
const ctxCheckInstrs = 4096

// RunContext executes the configured program to completion (or the safety
// cutoff), honoring ctx cancellation. Cancellation is observed at every
// power-cycle boundary and at least every ctxCheckInstrs committed
// instructions; a canceled run returns ctx's error and no result.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.run(ctx)
}

// run executes to completion (or the safety cutoff) and finalizes the
// Result. The caller gets a copy: a retained *Result must not keep the
// simulator's caches, NVM store and controllers reachable.
func (s *Simulator) run(ctx context.Context) (*Result, error) {
	completed, err := s.RunToCycle(ctx, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	s.res.Completed = completed
	s.res.ExecSeconds = float64(s.time) * CyclePeriod
	s.res.Committed = s.pos
	s.res.ICache = *s.ic.Stats()
	s.res.DCache = *s.dc.Stats()
	s.res.Compressions = s.ic.Stats().Compressions + s.dc.Stats().Compressions
	s.res.Decompressions = s.ic.Stats().Decompressions + s.dc.Stats().Decompressions
	if s.kag != nil {
		s.res.KaguraRMEntries = s.kag.Stats().RMEntries
	}
	// Capacitor self-discharge is consumption like any other.
	s.res.CapacitorLeakJoules = s.cap.Leaked()
	s.res.Energy.Others += s.cap.Leaked()
	// Close out the final (unfinished) power cycle for the log.
	if s.cfg.CollectCycleLog && s.curCommitted > 0 {
		s.recordCycle()
	}
	res := s.res
	return &res, nil
}

// spend drains consumed energy from the buffer and books it to a category.
func (s *Simulator) spend(joules float64, cat *float64) {
	if joules <= 0 {
		return
	}
	s.cap.Drain(joules)
	*cat += joules
}

// pj converts picojoules to joules.
func pj(v float64) float64 { return v * 1e-12 }

// leakWatts returns the powered static draw: core + caches (+ monitor).
func (s *Simulator) cacheLeakWatts() float64 {
	if s.cfg.DecayInterval > 0 {
		// EDBP power-gates dead lines: only live lines leak.
		return s.cfg.Energy.CacheLeakWattsPerByte * float64(s.ic.LiveBytes()+s.dc.LiveBytes())
	}
	return s.cacheWConst
}

// advance moves time forward by n powered cycles: harvesting from the trace,
// paying static leakage, and leaking the capacitor.
func (s *Simulator) advance(n int) {
	otherW := s.otherW
	cacheW := s.cacheWConst
	if s.cfg.DecayInterval > 0 {
		cacheW = s.cacheLeakWatts()
	}
	remaining := int64(n)
	for remaining > 0 {
		if s.time >= s.traceIntEnd || s.time < s.traceIntEnd-TraceIntervalCycles {
			s.refreshTraceInterval()
		}
		step := s.traceIntEnd - s.time
		if step > remaining {
			step = remaining
		}
		dt := float64(step) * CyclePeriod
		s.cap.Harvest(s.tracePower * dt)
		s.spend(otherW*dt, &s.res.Energy.Others)
		s.spend(cacheW*dt, &s.res.Energy.CacheOther)
		s.cap.Leak(dt)
		s.time += step
		s.poweredCycles += step
		remaining -= step
	}
}

// refreshTraceInterval re-derives the trace-interval cache for the interval
// containing s.time.
func (s *Simulator) refreshTraceInterval() {
	interval := s.time / TraceIntervalCycles
	s.traceIntEnd = (interval + 1) * TraceIntervalCycles
	s.tracePower = s.cfg.Trace.Power(interval)
}

// sleep advances time while powered off (only trace charging and capacitor
// leakage) until the buffer recovers to V_rst or the cutoff hits.
func (s *Simulator) sleep() {
	for !s.cap.AboveRestore() && s.time < s.maxCycles {
		if s.time >= s.traceIntEnd || s.time < s.traceIntEnd-TraceIntervalCycles {
			s.refreshTraceInterval()
		}
		step := s.traceIntEnd - s.time
		dt := float64(step) * CyclePeriod
		s.cap.Harvest(s.tracePower * dt)
		s.cap.Leak(dt)
		s.time += step
	}
}

// blockBase aligns an address to the (shared) block size.
func (s *Simulator) blockBase(addr uint32) uint32 {
	if s.blockPow2 {
		return addr &^ s.blockMask
	}
	bs := uint32(s.cfg.DCache.BlockSize)
	return addr - addr%bs
}

// compressionAllowed reports whether the compression stack (codec, ACC,
// Kagura) currently permits compressing.
func (s *Simulator) compressionAllowed() bool {
	if s.cfg.Codec == nil {
		return false
	}
	if s.cfg.UseACC && s.pred != nil && !s.pred.ShouldCompress() {
		return false
	}
	if s.kag != nil && !s.kag.CompressionEnabled() {
		return false
	}
	return true
}

// fillCompressDecision decides whether the block being filled at the current
// instruction should be stored compressed.
func (s *Simulator) fillCompressDecision(base uint32) bool {
	if s.cfg.Codec == nil {
		return false
	}
	if s.cfg.Oracle != nil && s.cfg.Oracle.Mode == OracleReplay {
		return s.cfg.Oracle.wasUseful(s.pos, base)
	}
	return s.compressionAllowed()
}

// trackKey packs (cache id, block base) for oracle bookkeeping.
func trackKey(id uint64, base uint32) uint64 { return id<<32 | uint64(base) }

// cacheID returns 0 for the ICache, 1 for the DCache.
func (s *Simulator) cacheID(c *cache.Cache) uint64 {
	if c == s.ic {
		return 0
	}
	return 1
}

// onEvictions books writebacks for displaced blocks and feeds Kagura/oracle.
func (s *Simulator) onEvictions(c *cache.Cache, victims []cache.Victim) {
	id := s.cacheID(c)
	for _, v := range victims {
		if s.tracked != nil {
			delete(s.tracked, trackKey(id, v.Addr))
		}
		if !v.Dirty {
			continue
		}
		// Decompression of compressed dirty victims is already counted by
		// the cache stats; pay its energy here.
		if v.WasCompressed {
			s.spend(s.decompJ, &s.res.Energy.Decompress)
		}
		if s.cfg.Design == NvMR {
			// Stores persisted at commit time; the NVM already holds this
			// data, so the writeback vanishes.
			continue
		}
		_, e := s.mem.WriteBlock(v.Addr, v.Data)
		s.spend(e, &s.res.Energy.Memory)
	}
}

// access performs one demand access (fetch or data) against a cache,
// returning the latency it contributes to the instruction.
func (s *Simulator) access(c *cache.Cache, addr uint32, write bool, value uint32) int {
	// Read fast path: an MRU hit (every sequential fetch and most stream
	// loads) needs no result struct — depth 0 is never beyond Ways, reads
	// never evict, and a depth-0 compressed hit is always a penalized hit
	// for the ACC predictor.
	if !write {
		if compressed, ok := c.ReadHitMRU(addr, s.time); ok {
			s.spend(s.accessJ, &s.res.Energy.CacheOther)
			latency := 1
			if compressed {
				buffered := c == s.ic && s.fetchBufValid && s.fetchBufBase == s.blockBase(addr)
				if !buffered {
					s.spend(s.decompJ, &s.res.Energy.Decompress)
					latency += s.decompLat
					if c == s.ic {
						s.fetchBufBase = s.blockBase(addr)
						s.fetchBufValid = true
					}
				}
				if s.pred != nil {
					s.pred.OnPenalizedHit()
				}
			} else if c == s.ic {
				s.fetchBufValid = false
			}
			return latency
		}
	}
	var wdata []byte
	if write {
		wdata = []byte{byte(value), byte(value >> 8), byte(value >> 16), byte(value >> 24)}
	}
	// A write to a compressed line always recompresses in place: the data
	// changed, so the hardware must re-encode it regardless of operating
	// mode — RM only stops *new* blocks from being stored compressed.
	recompress := s.cfg.Codec != nil
	res := &s.accRes
	c.AccessInto(res, addr, write, wdata, recompress, s.time)
	s.spend(s.accessJ, &s.res.Energy.CacheOther)
	latency := 1

	if res.Hit {
		if res.Compressed {
			buffered := c == s.ic && s.fetchBufValid && s.fetchBufBase == s.blockBase(addr)
			if !buffered {
				s.spend(s.decompJ, &s.res.Energy.Decompress)
				latency += s.decompLat
				if c == s.ic {
					s.fetchBufBase = s.blockBase(addr)
					s.fetchBufValid = true
				}
			}
		} else if c == s.ic {
			s.fetchBufValid = false
		}
		if res.Recompressed {
			s.spend(s.compJ, &s.res.Energy.Compress)
			latency += s.compLat
		}
		// ACC feedback (§II-C): deep hits prove compression's worth;
		// shallow compressed hits paid decompression for nothing.
		if s.pred != nil {
			if res.Depth >= c.Config().Ways {
				s.pred.OnAvoidedMiss()
			} else if res.Compressed {
				s.pred.OnPenalizedHit()
			}
		}
		// Oracle record: this compression contributed a real hit.
		if s.tracked != nil && res.Compressed && res.Depth >= c.Config().Ways {
			if key, ok := s.tracked[trackKey(s.cacheID(c), s.blockBase(addr))]; ok {
				s.cfg.Oracle.useful[key] = true
			}
		}
		s.onEvictions(c, res.Evicted)
		if write && s.cfg.Design == NvMR {
			s.persistStore(addr)
		}
		return latency
	}

	// Miss. A shadow-tag hit means compression's extra capacity would have
	// kept this block around — the predictor's recovery signal, and (in RM)
	// Kagura's R_evict signal: a reuse that disabling compression lost
	// (§VI-B's "blocks evicted due to disabled compression").
	if res.ShadowHit {
		if s.pred != nil {
			s.pred.OnAvoidedMiss()
		}
		if s.kag != nil {
			predOn := s.pred == nil || s.pred.ShouldCompress()
			s.kag.OnEviction(predOn)
		}
	}
	base := s.blockBase(addr)
	lat, e := s.mem.ReadBlock(base, s.blockBuf)
	s.spend(e, &s.res.Energy.Memory)
	latency += lat
	dirty := false
	if write {
		off := addr - base
		copy(s.blockBuf[off:], wdata)
		dirty = true
	}
	doCompress := s.fillCompressDecision(base)
	fr := c.Fill(addr, s.blockBuf, dirty, doCompress, false, s.time)
	s.spend(s.accessJ, &s.res.Energy.CacheOther) // fill write
	if fr.Compressions > 0 {
		s.spend(s.compJ*float64(fr.Compressions), &s.res.Energy.Compress)
		if fr.StoredCompressed {
			latency += s.compLat
		}
	}
	if fr.StoredCompressed && s.tracked != nil {
		s.tracked[trackKey(s.cacheID(c), base)] = oracleKey{bucket: s.pos >> oracleBucketShift, addr: base}
	}
	s.onEvictions(c, fr.Evicted)
	if write && s.cfg.Design == NvMR {
		s.persistStore(addr)
	}

	// IPEX-style next-line prefetch on DCache demand misses; intermittence-
	// aware: paused once Kagura expects imminent power failure.
	if s.cfg.Prefetch && c == s.dc && (s.kag == nil || s.kag.CompressionEnabled()) {
		s.prefetch(base + uint32(s.cfg.DCache.BlockSize))
	}
	return latency
}

// persistStore models NvMR's continuous persistence: the freshly written
// block is pushed to the NVM backing store for crash consistency, but the
// renaming/coalescing hardware means only the word's worth of NVM write
// energy is paid.
func (s *Simulator) persistStore(addr uint32) {
	base := s.blockBase(addr)
	if s.dc.ReadBlock(base, s.blockBuf) {
		s.mem.WriteBlock(base, s.blockBuf) // data fidelity; energy accounted below
	}
	s.spend(s.persistJ, &s.res.Energy.Checkpoint)
}

// prefetch fetches base into the DCache at LRU priority if absent.
func (s *Simulator) prefetch(base uint32) {
	if s.dc.Contains(base) {
		return
	}
	_, e := s.mem.ReadBlock(base, s.blockBuf)
	s.spend(e, &s.res.Energy.Memory)
	s.spend(s.accessJ, &s.res.Energy.CacheOther)
	fr := s.dc.Fill(base, s.blockBuf, false, s.fillCompressDecision(base), true, s.time)
	if fr.Compressions > 0 {
		s.spend(s.compJ*float64(fr.Compressions), &s.res.Energy.Compress)
	}
	s.onEvictions(s.dc, fr.Evicted)
	s.res.Prefetches++
}

// step commits one instruction and handles any resulting power failure.
func (s *Simulator) step() {
	ins := s.cur.At(s.pos)
	s.spend(s.pipeJ, &s.res.Energy.Others)

	latency := s.access(s.ic, ins.PC, false, 0)
	if ins.IsMem {
		latency += s.access(s.dc, ins.Addr, ins.IsStore, ins.Value)
		if ins.IsStore {
			s.curStores++
		} else {
			s.curLoads++
		}
		if s.kag != nil {
			predOn := s.pred == nil || s.pred.ShouldCompress()
			s.kag.OnMemOpCommitted(predOn)
		}
	}
	s.pos++
	s.res.Executed++
	s.curCommitted++

	// SweepCache region boundary: sweep dirty blocks, then execution can
	// never roll back past this point.
	if s.cfg.Design == SweepCache && s.pos-s.lastBoundary >= sweepRegionInstrs {
		s.sweep()
		s.lastBoundary = s.pos
	}

	// §VII-A atomic I/O regions: a full checkpoint opens each region so a
	// power failure can restore to the region start and re-execute.
	if s.cfg.AtomicRegionInstrs > 0 && s.pos-s.lastBoundary >= s.cfg.AtomicRegionInstrs {
		s.regionCheckpoint()
		s.lastBoundary = s.pos
	}

	// EDBP decay sweep, at a quarter of the decay interval.
	if s.cfg.DecayInterval > 0 && s.time%(s.cfg.DecayInterval/4+1) < int64(latency) {
		for _, c := range []*cache.Cache{s.ic, s.dc} {
			victims := c.DecaySweep(s.time, s.cfg.DecayInterval)
			s.onEvictions(c, victims)
		}
	}

	s.advance(latency)

	// Voltage-trigger sampling for Kagura (the sample is dead weight under
	// any other trigger — skip the headroom division).
	if s.voltTrig && s.budget > 0 {
		s.kag.OnVoltageHeadroom(s.cap.HeadroomAboveCheckpoint() / s.budget)
	}

	if s.cap.BelowCheckpoint() {
		s.powerFail()
	}
}

// regionCheckpoint opens an atomic region (§VII-A): registers and dirty
// cache blocks are checkpointed so the region can be re-executed after a
// mid-region power failure.
func (s *Simulator) regionCheckpoint() {
	for _, v := range s.dc.DirtyBlocks() {
		if v.WasCompressed {
			s.spend(s.decompJ, &s.res.Energy.Decompress)
		}
		lat, e := s.mem.WriteBlock(v.Addr, v.Data)
		s.spend(e, &s.res.Energy.Checkpoint)
		s.advance(lat)
		s.res.CheckpointedBlocks++
	}
	s.dc.CleanAll()
	state := float64(s.cfg.Energy.CheckpointStateBytes) * s.cfg.Energy.NVFFWritePJPerByte
	s.spend(pj(state), &s.res.Energy.Checkpoint)
}

// sweep flushes all dirty DCache blocks (SweepCache region boundary).
func (s *Simulator) sweep() {
	for _, v := range s.dc.DirtyBlocks() {
		if v.WasCompressed {
			s.spend(s.decompJ, &s.res.Energy.Decompress)
		}
		lat, e := s.mem.WriteBlock(v.Addr, v.Data)
		s.spend(e, &s.res.Energy.Checkpoint)
		s.advance(lat)
	}
	s.dc.CleanAll()
}

// recordCycle appends the current power cycle to the log.
func (s *Simulator) recordCycle() {
	s.res.Cycles = append(s.res.Cycles, CycleRecord{
		Committed: s.curCommitted,
		Loads:     s.curLoads,
		Stores:    s.curStores,
		Cycles:    s.poweredCycles - s.curStartPowered,
	})
}

// powerFail runs the design's crash-consistency action, sleeps through the
// outage, and reboots.
func (s *Simulator) powerFail() {
	if s.cfg.CollectCycleLog {
		s.recordCycle()
	}
	if s.kag != nil {
		s.kag.OnPowerFailure()
	}

	switch s.cfg.Design {
	case NVSRAMCache:
		if s.cfg.AtomicRegionInstrs > 0 {
			// Mid-region failure: JIT checkpointing of the program position
			// is disabled inside atomic regions (§VII-A); roll back to the
			// region-start checkpoint and re-execute.
			s.pos = s.lastBoundary
			break
		}
		// JIT checkpoint: dirty cache blocks to their nonvolatile
		// counterparts, processor state to NVFFs.
		dirty := s.dc.DirtyBlocks()
		for _, v := range dirty {
			if v.WasCompressed {
				s.spend(s.decompJ, &s.res.Energy.Decompress)
			}
			lat, e := s.mem.WriteBlock(v.Addr, v.Data)
			s.spend(e, &s.res.Energy.Checkpoint)
			s.advance(lat)
			s.res.CheckpointedBlocks++
		}
		state := float64(s.cfg.Energy.CheckpointStateBytes) * s.cfg.Energy.NVFFWritePJPerByte
		s.spend(pj(state), &s.res.Energy.Checkpoint)
	case NvMR:
		// Continuously persistent: nothing to do at power failure.
	case SweepCache:
		// Unswept progress is lost: roll back to the last region boundary.
		s.pos = s.lastBoundary
	}

	// Volatile cache contents are gone.
	s.ic.InvalidateAll()
	s.dc.InvalidateAll()
	s.fetchBufValid = false
	if s.pred != nil {
		s.pred.Reset()
	}
	if s.tracked != nil {
		s.tracked = make(map[uint64]oracleKey)
	}
	s.res.PowerCycles++

	s.sleep()
	if s.time >= s.maxCycles {
		return
	}

	// Reboot / restoration.
	switch s.cfg.Design {
	case NVSRAMCache:
		state := float64(s.cfg.Energy.CheckpointStateBytes) * s.cfg.Energy.NVFFWritePJPerByte / 2
		s.spend(pj(state+s.cfg.Energy.MonitorInitPJ), &s.res.Energy.Checkpoint)
	case NvMR:
		_, e := s.mem.ReadRaw(nvmrRecoveryBytes)
		s.spend(e, &s.res.Energy.Checkpoint)
	case SweepCache:
		// Re-execution from the boundary is the recovery cost; nothing else.
	}
	if s.kag != nil {
		s.kag.OnReboot()
	}
	s.curCommitted, s.curLoads, s.curStores = 0, 0, 0
	s.curStartPowered = s.poweredCycles
}

// String summarizes the configuration (used by cmd tools and errors).
func (c Config) String() string {
	codec := "none"
	if c.Codec != nil {
		codec = c.Codec.Name()
	}
	mode := "plain"
	if c.UseACC {
		mode = "ACC"
	}
	if c.Kagura != nil {
		mode += "+Kagura(" + c.Kagura.Trigger.String() + ")"
	}
	return fmt.Sprintf("%s/%s codec=%s %s", c.App.Name, c.Design, codec, mode)
}
