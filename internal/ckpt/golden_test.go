package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"kagura/internal/acc"
	"kagura/internal/cache"
	"kagura/internal/capacitor"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
)

// Golden digests of the version-1 encodings of goldenSnapshot and its
// result. They pin the on-disk bytes, not just the round trip: a change here
// is a format change, which needs a version bump and a migration test.
const (
	goldenCkptSHA256   = "0d62a4b627c3f72779e89d07cc9f79775c4cf5ded784a5ef87d4456544123f81"
	goldenResultSHA256 = "517d868b5b302aec5072a883437be053d399d5932280d2466df01810e144affa"
)

// goldenSnapshot is a fixed, hand-built snapshot that touches every field
// the codec writes, with ACC and Kagura state present. It is independent of
// the simulator, so only a format change can move its digest.
func goldenSnapshot() *ehs.Snapshot {
	stats := func(base int64) cache.Stats {
		return cache.Stats{
			Accesses: base + 1, Hits: base + 2, Misses: base + 3, HitsCompressed: base + 4,
			HitsBeyondWays: base + 5, Compressions: base + 6, Decompressions: base + 7,
			Evictions: base + 8, DirtyEvictions: base + 9, ShadowHits: base + 10,
			Fills: base + 11, FillsCompressed: base + 12, DecayEvictions: base + 13,
			PrefetchFills: base + 14,
		}
	}
	cacheState := func(seed uint64) cache.State {
		return cache.State{
			Sets: []cache.SetState{
				{
					Lines: []cache.LineState{
						{Valid: true, Addr: 0x1000, Dirty: true, Compressed: true, Segments: 3, LastUse: 77, Data: []byte{1, 2, 3, 4}},
						{Valid: false, Addr: 0x2000, Segments: 8, LastUse: -1},
					},
					Order:  []int{1, 0},
					Shadow: []uint32{0x3000, 0x4000},
				},
				{},
			},
			Stats:      stats(int64(seed) * 100),
			VictimSeed: seed,
		}
	}
	return &ehs.Snapshot{
		ConfigHash:      "golden-config-fingerprint",
		Time:            123456789,
		PoweredCycles:   98765,
		Pos:             4321,
		LastBoundary:    4300,
		CurCommitted:    21,
		CurLoads:        5,
		CurStores:       3,
		CurStartPowered: 98000,
		FetchBufBase:    0xdeadbee0,
		FetchBufValid:   true,
		Res: ehs.Result{
			Completed:   true,
			ExecSeconds: 0.125,
			Committed:   4321,
			Executed:    4400,
			PowerCycles: 2,
			Energy: ehs.EnergyBreakdown{
				Compress: 1e-9, Decompress: 2e-9, CacheOther: 3e-9,
				Memory: 4e-9, Checkpoint: 5e-9, Others: math.Pi,
			},
			ICache:          stats(1000),
			DCache:          stats(2000),
			Compressions:    11,
			Decompressions:  12,
			KaguraRMEntries: 13,
			Prefetches:      14,
			Cycles: []ehs.CycleRecord{
				{Committed: 100, Loads: 10, Stores: 5, Cycles: 1000},
				{Committed: 200, Loads: 20, Stores: 10, Cycles: 2000},
			},
			CheckpointedBlocks:  15,
			CapacitorLeakJoules: 6.5e-7,
		},
		Cap: capacitor.Snapshot{Energy: 1.5e-5, Leaked: 2.5e-6, Harvested: math.NaN()},
		Mem: nvm.Snapshot{
			Blocks: []nvm.BlockState{
				{Addr: 0x100, Data: []byte("block-a")},
				{Addr: 0x200, Data: []byte{0xff, 0x00}},
			},
			Reads:  31,
			Writes: 32,
		},
		ICache: cacheState(1),
		DCache: cacheState(2),
		Pred:   &acc.Snapshot{Counter: -3, AvoidedMisses: 41, PenalizedHits: 42},
		Kag: &kagura.Snapshot{
			RMem: 51, RPrev: 52, RThres: 53, RAdjust: -4, REvict: 55,
			Counter: 6, Mode: kagura.Mode(1),
			CmLost: 57, CmMemOps: 58, RmMemOps: 59,
			History: []uint32{61, 62, 63},
			Stats: kagura.Stats{
				CyclesSeen: 71, RMEntries: 72, MemOps: 73, MemOpsInRM: 74,
				AdjustApplied: 75, ThresholdRaises: 76, ThresholdDrops: 77,
			},
		},
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenEncoding holds Encode and EncodeResult to the recorded
// version-1 bytes, and checks that those bytes decode back to the same
// values.
func TestGoldenEncoding(t *testing.T) {
	snap := goldenSnapshot()
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(data); got != goldenCkptSHA256 {
		t.Errorf("Encode digest = %s, want %s", got, goldenCkptSHA256)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// NaN never equals itself; compare the bit patterns, then the rest.
	if math.Float64bits(back.Cap.Harvested) != math.Float64bits(snap.Cap.Harvested) {
		t.Error("Cap.Harvested NaN payload changed")
	}
	back.Cap.Harvested, snap.Cap.Harvested = 0, 0
	if !reflect.DeepEqual(back, snap) {
		t.Error("Decode(golden bytes) differs from the golden snapshot")
	}

	res, err := EncodeResult(&snap.Res)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(res); got != goldenResultSHA256 {
		t.Errorf("EncodeResult digest = %s, want %s", got, goldenResultSHA256)
	}
	r, err := DecodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &snap.Res) {
		t.Error("DecodeResult(golden bytes) differs from the golden result")
	}
}

// A cache state with no sets still carries its stats and victim seed; the
// decoder must read them rather than stop at the empty set list.
func TestEmptyCacheStateRoundTrips(t *testing.T) {
	snap := &ehs.Snapshot{ConfigHash: "empty-caches"}
	snap.ICache.Stats.Hits = 5
	snap.ICache.VictimSeed = 9
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("ICache = %+v, want %+v", got.ICache, snap.ICache)
	}
}
