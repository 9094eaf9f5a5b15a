// Package ckpt serializes simulator snapshots (ehs.Snapshot) to a versioned,
// deterministic binary format — the on-disk checkpoint that lets a run be
// taken once, inspected, diffed, and resumed or forked later (DESIGN.md §9).
//
// Format (version 1): a frame header (8-byte magic, little-endian uint16
// version), then the snapshot fields in fixed order. All integers are
// little-endian and fixed-width; floats are IEEE-754 bit patterns (so
// encode∘decode is the identity on every value, including NaN payloads);
// slices and strings are length-prefixed. Encoding the same snapshot always
// yields the same bytes (the NVM block list is address-sorted at capture).
//
// Decode is hardened against arbitrary input: frame.Reader checks every
// length prefix against the bytes actually remaining before allocation,
// unknown versions and trailing bytes are errors, and no input can cause a
// panic (FuzzCkptDecode holds the codec to that). Decoding validates
// structure only; semantic validation — cache geometry, counter ranges,
// charge ceilings — happens in Simulator.RestoreSnapshot, which is the only
// way decoded state reaches a simulation.
package ckpt

import (
	"fmt"

	"kagura/internal/acc"
	"kagura/internal/cache"
	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/frame"
	"kagura/internal/kagura"
	"kagura/internal/nvm"
)

// Magic identifies a kagura checkpoint file.
const Magic = "KAGCKPT\x00"

// Version is the current format version. Decode refuses any other value:
// format changes bump the version, and old readers must fail loudly rather
// than misinterpret newer layouts (forward-compat policy in DESIGN.md §9).
const Version uint16 = 1

// maxHashLen bounds the config-fingerprint string (SHA-256 hex is 64 bytes).
const maxHashLen = 128

// Encode serializes a snapshot. The output is deterministic: equal snapshots
// produce equal bytes.
func Encode(snap *ehs.Snapshot) ([]byte, error) {
	if err := faultinject.CkptEncode.FireErr(); err != nil {
		return nil, fmt.Errorf("ckpt: encode: %w", err)
	}
	if snap == nil {
		return nil, fmt.Errorf("ckpt: nil snapshot")
	}
	if len(snap.ConfigHash) > maxHashLen {
		return nil, fmt.Errorf("ckpt: config hash is %d bytes, limit %d", len(snap.ConfigHash), maxHashLen)
	}
	// Start empty and let append size the buffer: a fixed large start would
	// come back with its whole capacity, and a warm snapshot waiting in the
	// store-publish queue would pin it.
	w := &frame.Writer{}
	w.Header(Magic, Version)
	w.Str(snap.ConfigHash)

	w.I64(snap.Time)
	w.I64(snap.PoweredCycles)
	w.I64(snap.Pos)
	w.I64(snap.LastBoundary)
	w.I64(snap.CurCommitted)
	w.I64(snap.CurLoads)
	w.I64(snap.CurStores)
	w.I64(snap.CurStartPowered)
	w.U32(snap.FetchBufBase)
	w.Bool(snap.FetchBufValid)

	writeResult(w, &snap.Res)

	w.F64(snap.Cap.Energy)
	w.F64(snap.Cap.Leaked)
	w.F64(snap.Cap.Harvested)

	w.U32(uint32(len(snap.Mem.Blocks)))
	for _, b := range snap.Mem.Blocks {
		w.U32(b.Addr)
		w.Bytes(b.Data)
	}
	w.I64(snap.Mem.Reads)
	w.I64(snap.Mem.Writes)

	writeCacheState(w, &snap.ICache)
	writeCacheState(w, &snap.DCache)

	w.Bool(snap.Pred != nil)
	if snap.Pred != nil {
		w.I64(int64(snap.Pred.Counter))
		w.I64(snap.Pred.AvoidedMisses)
		w.I64(snap.Pred.PenalizedHits)
	}
	w.Bool(snap.Kag != nil)
	if snap.Kag != nil {
		k := snap.Kag
		w.U32(k.RMem)
		w.U32(k.RPrev)
		w.U32(k.RThres)
		w.U32(uint32(k.RAdjust))
		w.U32(k.REvict)
		w.I64(int64(k.Counter))
		w.U16(uint16(k.Mode))
		w.U32(k.CmLost)
		w.U32(k.CmMemOps)
		w.U32(k.RmMemOps)
		w.U32(uint32(len(k.History)))
		for _, h := range k.History {
			w.U32(h)
		}
		w.I64(k.Stats.CyclesSeen)
		w.I64(k.Stats.RMEntries)
		w.I64(k.Stats.MemOps)
		w.I64(k.Stats.MemOpsInRM)
		w.I64(k.Stats.AdjustApplied)
		w.I64(k.Stats.ThresholdRaises)
		w.I64(k.Stats.ThresholdDrops)
	}
	return w.Buf, nil
}

// Decode parses a checkpoint. Any malformation — wrong magic, unknown
// version, truncation, oversized length prefixes, trailing bytes — is an
// error; no input panics.
func Decode(data []byte) (*ehs.Snapshot, error) {
	data = faultinject.CkptDecode.CorruptBytes(data)
	r := frame.NewReader("ckpt", data)
	r.Header(Magic, Version, "checkpoint")
	snap := &ehs.Snapshot{}
	snap.ConfigHash = r.Str(maxHashLen)

	snap.Time = r.I64()
	snap.PoweredCycles = r.I64()
	snap.Pos = r.I64()
	snap.LastBoundary = r.I64()
	snap.CurCommitted = r.I64()
	snap.CurLoads = r.I64()
	snap.CurStores = r.I64()
	snap.CurStartPowered = r.I64()
	snap.FetchBufBase = r.U32()
	snap.FetchBufValid = r.Bool()

	readResult(r, &snap.Res)

	snap.Cap.Energy = r.F64()
	snap.Cap.Leaked = r.F64()
	snap.Cap.Harvested = r.F64()

	// Each block is at least addr(4) + length prefix(4) bytes.
	if n := r.Count(8); n > 0 {
		snap.Mem.Blocks = make([]nvm.BlockState, n)
	}
	for i := range snap.Mem.Blocks {
		snap.Mem.Blocks[i].Addr = r.U32()
		snap.Mem.Blocks[i].Data = r.Bytes()
	}
	snap.Mem.Reads = r.I64()
	snap.Mem.Writes = r.I64()

	readCacheState(r, &snap.ICache)
	readCacheState(r, &snap.DCache)

	if r.Bool() {
		p := &acc.Snapshot{}
		p.Counter = int(r.I64())
		p.AvoidedMisses = r.I64()
		p.PenalizedHits = r.I64()
		snap.Pred = p
	}
	if r.Bool() {
		k := &kagura.Snapshot{}
		k.RMem = r.U32()
		k.RPrev = r.U32()
		k.RThres = r.U32()
		k.RAdjust = int32(r.U32())
		k.REvict = r.U32()
		k.Counter = int(r.I64())
		k.Mode = kagura.Mode(r.U16())
		k.CmLost = r.U32()
		k.CmMemOps = r.U32()
		k.RmMemOps = r.U32()
		if n := r.Count(4); n > 0 {
			k.History = make([]uint32, n)
		}
		for i := range k.History {
			k.History[i] = r.U32()
		}
		k.Stats.CyclesSeen = r.I64()
		k.Stats.RMEntries = r.I64()
		k.Stats.MemOps = r.I64()
		k.Stats.MemOpsInRM = r.I64()
		k.Stats.AdjustApplied = r.I64()
		k.Stats.ThresholdRaises = r.I64()
		k.Stats.ThresholdDrops = r.I64()
		snap.Kag = k
	}
	if err := r.Done("snapshot"); err != nil {
		return nil, err
	}
	return snap, nil
}

func writeStats(w *frame.Writer, s *cache.Stats) {
	w.I64(s.Accesses)
	w.I64(s.Hits)
	w.I64(s.Misses)
	w.I64(s.HitsCompressed)
	w.I64(s.HitsBeyondWays)
	w.I64(s.Compressions)
	w.I64(s.Decompressions)
	w.I64(s.Evictions)
	w.I64(s.DirtyEvictions)
	w.I64(s.ShadowHits)
	w.I64(s.Fills)
	w.I64(s.FillsCompressed)
	w.I64(s.DecayEvictions)
	w.I64(s.PrefetchFills)
}

func writeResult(w *frame.Writer, res *ehs.Result) {
	w.Bool(res.Completed)
	w.F64(res.ExecSeconds)
	w.I64(res.Committed)
	w.I64(res.Executed)
	w.I64(res.PowerCycles)
	w.F64(res.Energy.Compress)
	w.F64(res.Energy.Decompress)
	w.F64(res.Energy.CacheOther)
	w.F64(res.Energy.Memory)
	w.F64(res.Energy.Checkpoint)
	w.F64(res.Energy.Others)
	writeStats(w, &res.ICache)
	writeStats(w, &res.DCache)
	w.I64(res.Compressions)
	w.I64(res.Decompressions)
	w.I64(res.KaguraRMEntries)
	w.I64(res.Prefetches)
	w.U32(uint32(len(res.Cycles)))
	for _, c := range res.Cycles {
		w.I64(c.Committed)
		w.I64(c.Loads)
		w.I64(c.Stores)
		w.I64(c.Cycles)
	}
	w.I64(res.CheckpointedBlocks)
	w.F64(res.CapacitorLeakJoules)
}

func writeCacheState(w *frame.Writer, st *cache.State) {
	w.U32(uint32(len(st.Sets)))
	for _, set := range st.Sets {
		w.U16(uint16(len(set.Lines)))
		for _, ln := range set.Lines {
			w.Bool(ln.Valid)
			w.U32(ln.Addr)
			w.Bool(ln.Dirty)
			w.Bool(ln.Compressed)
			w.U16(uint16(ln.Segments))
			w.I64(ln.LastUse)
			w.Bytes(ln.Data)
		}
		w.U16(uint16(len(set.Order)))
		for _, idx := range set.Order {
			w.U16(uint16(idx))
		}
		w.U16(uint16(len(set.Shadow)))
		for _, addr := range set.Shadow {
			w.U32(addr)
		}
	}
	writeStats(w, &st.Stats)
	w.U64(st.VictimSeed)
}

func readStats(r *frame.Reader, s *cache.Stats) {
	s.Accesses = r.I64()
	s.Hits = r.I64()
	s.Misses = r.I64()
	s.HitsCompressed = r.I64()
	s.HitsBeyondWays = r.I64()
	s.Compressions = r.I64()
	s.Decompressions = r.I64()
	s.Evictions = r.I64()
	s.DirtyEvictions = r.I64()
	s.ShadowHits = r.I64()
	s.Fills = r.I64()
	s.FillsCompressed = r.I64()
	s.DecayEvictions = r.I64()
	s.PrefetchFills = r.I64()
}

func readResult(r *frame.Reader, res *ehs.Result) {
	res.Completed = r.Bool()
	res.ExecSeconds = r.F64()
	res.Committed = r.I64()
	res.Executed = r.I64()
	res.PowerCycles = r.I64()
	res.Energy.Compress = r.F64()
	res.Energy.Decompress = r.F64()
	res.Energy.CacheOther = r.F64()
	res.Energy.Memory = r.F64()
	res.Energy.Checkpoint = r.F64()
	res.Energy.Others = r.F64()
	readStats(r, &res.ICache)
	readStats(r, &res.DCache)
	res.Compressions = r.I64()
	res.Decompressions = r.I64()
	res.KaguraRMEntries = r.I64()
	res.Prefetches = r.I64()
	// Each cycle record is 4×8 bytes.
	if n := r.Count(32); n > 0 {
		res.Cycles = make([]ehs.CycleRecord, n)
	}
	for i := range res.Cycles {
		res.Cycles[i].Committed = r.I64()
		res.Cycles[i].Loads = r.I64()
		res.Cycles[i].Stores = r.I64()
		res.Cycles[i].Cycles = r.I64()
	}
	res.CheckpointedBlocks = r.I64()
	res.CapacitorLeakJoules = r.F64()
}

func readCacheState(r *frame.Reader, st *cache.State) {
	// Counts are 0 once the reader has failed, so no allocation follows an
	// error. Each set carries at least three u16 prefixes.
	if nSets := r.Count(6); nSets > 0 {
		st.Sets = make([]cache.SetState, nSets)
	}
	for si := range st.Sets {
		set := &st.Sets[si]
		// Each line is at least 1+4+1+1+2+8+4 = 21 bytes.
		if nLines := r.Count16(21); nLines > 0 {
			set.Lines = make([]cache.LineState, nLines)
		}
		for li := range set.Lines {
			ln := &set.Lines[li]
			ln.Valid = r.Bool()
			ln.Addr = r.U32()
			ln.Dirty = r.Bool()
			ln.Compressed = r.Bool()
			ln.Segments = int(r.U16())
			ln.LastUse = r.I64()
			ln.Data = r.Bytes()
		}
		if nOrder := r.Count16(2); nOrder > 0 {
			set.Order = make([]int, nOrder)
		}
		for i := range set.Order {
			set.Order[i] = int(r.U16())
		}
		if nShadow := r.Count16(4); nShadow > 0 {
			set.Shadow = make([]uint32, nShadow)
		}
		for i := range set.Shadow {
			set.Shadow[i] = r.U32()
		}
	}
	readStats(r, &st.Stats)
	st.VictimSeed = r.U64()
}
