package ehs

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kagura/internal/compress"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// testConfig returns a small, fast configuration.
func testConfig(t *testing.T, appName string) Config {
	t.Helper()
	app, err := workload.ByName(appName, 0.05) // ~30k instructions
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(app, powertrace.RFHome(1))
	cfg.CollectCycleLog = true
	return cfg
}

func TestBaselineRunsToCompletion(t *testing.T) {
	res, err := Run(testConfig(t, "jpeg"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("baseline did not complete")
	}
	if res.Committed != res.Executed {
		t.Fatalf("NVSRAMCache must not re-execute: committed %d executed %d", res.Committed, res.Executed)
	}
	if res.PowerCycles == 0 {
		t.Fatal("expected at least one power outage under RFHome")
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy consumed")
	}
	if res.Energy.Compress != 0 || res.Energy.Decompress != 0 {
		t.Fatal("compressor-free baseline burned compression energy")
	}
	if res.ICache.Accesses < res.Committed {
		t.Fatal("every instruction must access the ICache")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(testConfig(t, "gsm"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, "gsm"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecSeconds != b.ExecSeconds || a.PowerCycles != b.PowerCycles ||
		a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestACCCompressesAndAccountsEnergy(t *testing.T) {
	cfg := testConfig(t, "jpeg").WithACC(compress.BDI{})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("ACC run did not complete")
	}
	if res.Compressions == 0 {
		t.Fatal("ACC never compressed on a compressible workload")
	}
	if res.Energy.Compress <= 0 || res.Energy.Decompress <= 0 {
		t.Fatalf("compression energy missing: %+v", res.Energy)
	}
}

func TestKaguraReducesCompressions(t *testing.T) {
	accCfg := testConfig(t, "jpeg").WithACC(compress.BDI{})
	accRes, err := Run(accCfg)
	if err != nil {
		t.Fatal(err)
	}
	kagCfg := accCfg.WithKagura(kagura.DefaultConfig())
	kagRes, err := Run(kagCfg)
	if err != nil {
		t.Fatal(err)
	}
	if kagRes.KaguraRMEntries == 0 {
		t.Fatal("Kagura never entered RM")
	}
	if kagRes.Compressions >= accRes.Compressions {
		t.Fatalf("Kagura should cut compressions: ACC %d vs +Kagura %d",
			accRes.Compressions, kagRes.Compressions)
	}
}

func TestCycleLogCollected(t *testing.T) {
	res, err := Run(testConfig(t, "susan"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) == 0 {
		t.Fatal("cycle log empty with CollectCycleLog")
	}
	var committed int64
	for _, c := range res.Cycles {
		committed += c.Committed
		if c.Committed > 0 && c.CPI() < 1 {
			t.Fatalf("CPI %v < 1 impossible for in-order core", c.CPI())
		}
	}
	if committed != res.Committed {
		t.Fatalf("cycle log committed %d != total %d", committed, res.Committed)
	}
}

func TestNoCycleLogByDefault(t *testing.T) {
	cfg := testConfig(t, "susan")
	cfg.CollectCycleLog = false
	res, _ := Run(cfg)
	if len(res.Cycles) != 0 {
		t.Fatal("cycle log collected without CollectCycleLog")
	}
}

func TestSweepCacheRollsBack(t *testing.T) {
	cfg := testConfig(t, "jpeg")
	cfg.Design = SweepCache
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("SweepCache run did not complete")
	}
	if res.PowerCycles > 0 && res.Executed <= res.Committed {
		t.Fatal("SweepCache with outages must re-execute some instructions")
	}
	if res.Energy.Checkpoint <= 0 {
		t.Fatal("sweeps must book checkpoint energy")
	}
}

func TestNvMRPersistsWithoutCheckpoints(t *testing.T) {
	cfg := testConfig(t, "jpeg")
	cfg.Design = NvMR
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("NvMR run did not complete")
	}
	if res.CheckpointedBlocks != 0 {
		t.Fatal("NvMR must not checkpoint cache blocks")
	}
	if res.Energy.Checkpoint <= 0 {
		t.Fatal("NvMR store persistence must book energy")
	}
}

func TestNVSRAMCheckpointFlushesDirty(t *testing.T) {
	res, err := Run(testConfig(t, "jpeg"))
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerCycles > 0 && res.CheckpointedBlocks == 0 {
		t.Fatal("JIT checkpoints should flush dirty blocks for a store-heavy app")
	}
	if res.Energy.Checkpoint <= 0 {
		t.Fatal("checkpoint energy missing")
	}
}

func TestDataFidelityAcrossOutages(t *testing.T) {
	// The NVM backing store plus write-back caches must never lose a store:
	// run with compression and outages, then verify final NVM contents for a
	// handful of written addresses by replaying the store stream.
	cfg := testConfig(t, "gsm").WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := sim.run(context.Background())
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Find the LAST store to each address in program order.
	lastStore := make(map[uint32]uint32)
	for i := int64(0); i < cfg.App.Len(); i++ {
		ins := cfg.App.At(i)
		if ins.IsMem && ins.IsStore {
			lastStore[ins.Addr] = ins.Value
		}
	}
	// Flush what's still dirty in the DCache, then check NVM contents.
	for _, v := range sim.dc.DirtyBlocks() {
		sim.mem.WriteBlock(v.Addr, v.Data)
	}
	buf := make([]byte, cfg.DCache.BlockSize)
	checked := 0
	for addr, want := range lastStore {
		base := addr - addr%uint32(cfg.DCache.BlockSize)
		sim.mem.ReadBlock(base, buf)
		off := addr - base
		got := uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24
		if got != want {
			t.Fatalf("addr %#x: NVM has %#x, want %#x", addr, got, want)
		}
		checked++
		if checked >= 200 {
			break
		}
	}
}

func TestVoltageTriggerEntersRM(t *testing.T) {
	kcfg := kagura.DefaultConfig()
	kcfg.Trigger = kagura.TriggerVoltage
	cfg := testConfig(t, "jpeg").WithACC(compress.BDI{}).WithKagura(kcfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.KaguraRMEntries == 0 {
		t.Fatal("voltage trigger never fired")
	}
}

func TestMonitorCostOnMonitorFreeDesign(t *testing.T) {
	// Kagura's voltage trigger on NvMR forces a monitor in; the same config
	// with the memory trigger must consume less "Others" energy.
	base := testConfig(t, "gsm").WithACC(compress.BDI{})
	base.Design = NvMR

	mem := base.WithKagura(kagura.DefaultConfig())
	memRes, err := Run(mem)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kagura.DefaultConfig()
	kcfg.Trigger = kagura.TriggerVoltage
	vol := base.WithKagura(kcfg)
	volRes, err := Run(vol)
	if err != nil {
		t.Fatal(err)
	}
	if volRes.Energy.Others <= memRes.Energy.Others {
		t.Fatalf("voltage trigger on NvMR must pay monitor energy: vol=%g mem=%g",
			volRes.Energy.Others, memRes.Energy.Others)
	}
}

func TestDecayReducesCheckpointedBlocks(t *testing.T) {
	plain, err := Run(testConfig(t, "crc"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "crc")
	cfg.DecayInterval = 600
	decay, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if decay.DCache.DecayEvictions+decay.ICache.DecayEvictions == 0 {
		t.Fatal("decay never evicted")
	}
	_ = plain // shapes compared in experiments; here we only require activity
}

func TestPrefetchIssues(t *testing.T) {
	cfg := testConfig(t, "crc") // streaming: next-line prefetch shines
	cfg.Prefetch = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetches == 0 {
		t.Fatal("prefetcher never issued")
	}
}

func TestOracleRecordReplay(t *testing.T) {
	record := testConfig(t, "jpeg").WithACC(compress.BDI{})
	record.Oracle = NewOracle()
	if _, err := Run(record); err != nil {
		t.Fatal(err)
	}
	if record.Oracle.UsefulCount() == 0 {
		t.Fatal("record phase found no useful compressions on jpeg")
	}
	replay := testConfig(t, "jpeg").WithACC(compress.BDI{})
	replay.Oracle = record.Oracle.Replay()
	res, err := Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("replay did not complete")
	}
	if res.Compressions == 0 {
		t.Fatal("ideal replay should still perform the useful compressions")
	}
}

// A recording oracle only observes: the run it is attached to returns the
// same Result as the run without it, on every design and codec, with Kagura
// on and off. The Lab relies on this to record Fig 13's ideal oracle on the
// ACC+Kagura run it needs anyway.
func TestOracleRecordOnlyObserves(t *testing.T) {
	for _, design := range Designs() {
		for _, codec := range []compress.Codec{compress.BDI{}, compress.FPC{}} {
			for _, withKagura := range []bool{false, true} {
				cfg := testConfig(t, "jpeg").WithACC(codec)
				cfg.Design = design
				if withKagura {
					cfg = cfg.WithKagura(kagura.DefaultConfig())
				}
				plain, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Oracle = NewOracle()
				recorded, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/kagura=%v", design, codec.Name(), withKagura)
				if cfg.Oracle.UsefulCount() == 0 {
					t.Errorf("%s: the oracle recorded nothing", name)
				}
				if !reflect.DeepEqual(plain, recorded) {
					t.Errorf("%s: recording changed the result:\n%+v\n---\n%+v", name, plain, recorded)
				}
			}
		}
	}
}

func TestValidateErrors(t *testing.T) {
	var cfg Config
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty config must fail validation")
	}
	good := testConfig(t, "jpeg")
	good.MaxSimSeconds = 0
	if _, err := Run(good); err == nil {
		t.Fatal("zero cutoff must fail validation")
	}
}

func TestConfigString(t *testing.T) {
	cfg := testConfig(t, "jpeg").WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
	s := cfg.String()
	if s == "" {
		t.Fatal("empty config string")
	}
}

func TestSafetyCutoff(t *testing.T) {
	cfg := testConfig(t, "jpeg")
	cfg.Trace = powertrace.FromSamples("dead", []float64{0})
	cfg.MaxSimSeconds = 0.01
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("cannot complete on a dead trace")
	}
}

func TestEnergyBreakdownAddsUp(t *testing.T) {
	res, err := Run(testConfig(t, "mpeg2"))
	if err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	for name, v := range map[string]float64{
		"CacheOther": e.CacheOther, "Memory": e.Memory,
		"Checkpoint": e.Checkpoint, "Others": e.Others,
	} {
		if v <= 0 {
			t.Errorf("category %s is %g, expected positive", name, v)
		}
	}
	if e.Total() < e.Memory {
		t.Fatal("total smaller than a component")
	}
}

func TestSpeedupHelpers(t *testing.T) {
	a := &Result{ExecSeconds: 2, Energy: EnergyBreakdown{Others: 10}}
	b := &Result{ExecSeconds: 1, Energy: EnergyBreakdown{Others: 8}}
	if s := b.Speedup(a); s != 1.0 {
		t.Fatalf("speedup = %v, want 1.0", s)
	}
	if r := b.EnergyReduction(a); r < 0.199 || r > 0.201 {
		t.Fatalf("reduction = %v, want ~0.2", r)
	}
	if (&Result{}).Speedup(a) != 0 {
		t.Fatal("zero-time result should report 0 speedup")
	}
}

func TestAvgCommittedPerCycle(t *testing.T) {
	r := &Result{Committed: 100, PowerCycles: 4}
	if r.AvgCommittedPerCycle() != 25 {
		t.Fatal("avg committed wrong")
	}
	r2 := &Result{Committed: 100}
	if r2.AvgCommittedPerCycle() != 100 {
		t.Fatal("no-outage avg should be total")
	}
}

func TestSimpleEstimatorRuns(t *testing.T) {
	kc := kagura.DefaultConfig()
	kc.SimpleEstimator = true
	cfg := testConfig(t, "jpeg").WithACC(compress.BDI{}).WithKagura(kc)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.KaguraRMEntries == 0 {
		t.Fatal("simple estimator should still drive mode switches")
	}
}

func TestAtomicRegionsRollBack(t *testing.T) {
	cfg := testConfig(t, "jpeg")
	cfg.AtomicRegionInstrs = 2048
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("atomic-region run did not complete")
	}
	if res.PowerCycles > 0 && res.Executed <= res.Committed {
		t.Fatal("mid-region power failures must re-execute instructions")
	}
	if res.CheckpointedBlocks == 0 {
		t.Fatal("region boundaries must checkpoint dirty blocks")
	}
}

func TestAtomicRegionsDataFidelity(t *testing.T) {
	// Region rollback re-executes stores; the deterministic workload must
	// leave the NVM consistent (same final values as the JIT-only run).
	jit, err := Run(testConfig(t, "gsm"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "gsm")
	cfg.AtomicRegionInstrs = 1024
	atomic, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jit.Committed != atomic.Committed {
		t.Fatalf("forward progress differs: %d vs %d", jit.Committed, atomic.Committed)
	}
}

func TestEnergyConservation(t *testing.T) {
	// initial + absorbed harvest = drained (booked categories minus the
	// capacitor self-leak, which is not drained) + self-leak + final charge.
	cfg := testConfig(t, "mpeg2").WithACC(compress.BDI{})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := sim.cap.Energy()
	res, _ := sim.run(context.Background())
	drained := res.Energy.Total() - res.CapacitorLeakJoules
	lhs := initial + sim.cap.Harvested()
	rhs := drained + sim.cap.Leaked() + sim.cap.Energy()
	if diff := lhs - rhs; diff > 1e-9*lhs || diff < -1e-9*lhs {
		t.Fatalf("energy not conserved: in=%g out=%g (diff %g)", lhs, rhs, diff)
	}
}

func TestFetchBufferSavesDecompressions(t *testing.T) {
	// Sequential fetches within one compressed ICache block must decompress
	// once: decompression energy per ICache compressed hit must be well
	// below one event each.
	cfg := testConfig(t, "jpeg").WithACC(compress.BDI{})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := sim.run(context.Background())
	if res.ICache.HitsCompressed == 0 {
		t.Skip("no compressed ICache hits in this configuration")
	}
	perHit := res.Energy.Decompress / pj(cfg.Energy.DecompressPJ) / float64(res.ICache.HitsCompressed+res.DCache.HitsCompressed)
	if perHit > 0.9 {
		t.Fatalf("decompression events per compressed hit = %.2f; fetch buffer ineffective", perHit)
	}
}

func TestPrefetchPausedInRM(t *testing.T) {
	// The IPEX prefetcher is intermittence-aware: with Kagura pinned in RM
	// (huge threshold), no prefetches may issue after the first decision.
	kc := kagura.DefaultConfig()
	kc.InitialThreshold = 1 << 19 // RM from the first memory op
	cfg := testConfig(t, "crc").WithACC(compress.BDI{}).WithKagura(kc)
	cfg.Prefetch = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	noKag := testConfig(t, "crc").WithACC(compress.BDI{})
	noKag.Prefetch = true
	free, err := Run(noKag)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetches >= free.Prefetches {
		t.Fatalf("RM-pinned run prefetched %d, unconstrained %d; prefetcher not intermittence-aware",
			res.Prefetches, free.Prefetches)
	}
}

func TestRunContextCancellation(t *testing.T) {
	cfg := testConfig(t, "jpeg")

	// A pre-canceled context aborts before any meaningful progress.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg); err == nil {
		t.Fatal("RunContext with canceled context should fail")
	}

	// A background context runs to the same result as Run.
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecSeconds != ref.ExecSeconds || res.Committed != ref.Committed {
		t.Fatalf("RunContext diverged from Run: %+v vs %+v", res, ref)
	}
}

// TestResultDoesNotPinSimulator keeps only the Result a run returns and
// checks that the Simulator behind it (caches, NVM store, controllers) is
// collectable: a service retains thousands of Results, and each must cost
// its own size, not its simulator's.
func TestResultDoesNotPinSimulator(t *testing.T) {
	cfg := testConfig(t, "jpeg").WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
	half, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := half.RunToCycle(context.Background(), midpointCycle(t, cfg)); err != nil {
		t.Fatal(err)
	}
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, resume := range []bool{false, true} {
		res, collected := runAndDropSimulator(t, cfg, resume, snap)
		if !collected {
			t.Fatalf("resume=%v: the Simulator is still reachable from its Result", resume)
		}
		if !res.Completed || len(res.Cycles) == 0 {
			t.Fatalf("resume=%v: result lost its contents: completed %v, %d cycle records", resume, res.Completed, len(res.Cycles))
		}
	}
}

// runAndDropSimulator runs cfg (from snap when resume is set), drops every
// reference but the Result, and reports whether the Simulator's finalizer
// ran.
func runAndDropSimulator(t *testing.T, cfg Config, resume bool, snap *Snapshot) (*Result, bool) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resume {
		if err := s.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(s, func(*Simulator) { close(freed) })
	res, err := s.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return res, true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return res, false
}
