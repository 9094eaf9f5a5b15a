// Package cache implements the volatile SRAM caches of the simulated EHS.
//
// The organization follows the variable-segment compressed cache that
// Adaptive Cache Compression (Alameldeen & Wood, ISCA 2004) builds on: each
// set holds up to TagFactor×Ways tags but only Ways×BlockSize bytes of data,
// managed in small segments. An uncompressed block occupies BlockSize/Segment
// segments; a compressed block occupies however many segments its encoding
// needs, so a set can hold more blocks than an uncompressed cache of the same
// area. Replacement is LRU over the tag stack. Hits at LRU stack depth ≥ Ways
// are hits that exist only thanks to compression ("avoided misses"), which is
// the signal ACC's predictor feeds on.
//
// The package is purely mechanical: it moves blocks, tracks LRU state, and
// reports countable events (compressions, decompressions, evictions, dirty
// writebacks). Energy/latency accounting and compression *policy* (ACC,
// Kagura) live in their own packages and act through the tryCompress
// arguments.
//
// Two optional extensions model the related cache managements of Fig 20:
// cache decay (EDBP-style dead block prediction) via DecaySweep, and a
// next-line prefetcher hook (IPEX) driven by the simulator.
package cache

import (
	"bytes"
	"fmt"

	"kagura/internal/compress"
)

// Config describes one cache instance.
type Config struct {
	// Name identifies the cache in stats output (e.g. "ICache", "DCache").
	Name string
	// SizeBytes is the data-array capacity (paper default 256B per cache).
	SizeBytes int
	// Ways is the associativity of the uncompressed organization (default 2).
	Ways int
	// BlockSize is the line size in bytes (default 32).
	BlockSize int
	// TagFactor is how many tags exist per data way (2 ⇒ up to 2×Ways blocks
	// per set when everything compresses to half size or better).
	TagFactor int
	// SegmentBytes is the data-array allocation granularity (default 4).
	SegmentBytes int
	// Codec sizes compressed blocks; nil disables compression support
	// entirely. The cache stores raw bytes and a segment count, so it needs
	// only the size, never an encoding.
	Codec compress.Sizer
	// Replacement selects the victim policy (default LRU).
	Replacement Replacement
}

// Replacement is a cache replacement policy.
type Replacement int

const (
	// ReplLRU evicts the least recently used block (the paper's Table I).
	ReplLRU Replacement = iota
	// ReplFIFO evicts the oldest-inserted block (accesses don't promote).
	ReplFIFO
	// ReplRandom evicts a pseudo-random block (deterministic hash sequence).
	ReplRandom
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case ReplFIFO:
		return "FIFO"
	case ReplRandom:
		return "Random"
	}
	return "LRU"
}

// DefaultConfig returns the paper's Table I cache: 256B, 2-way, 32B blocks.
func DefaultConfig(name string, codec compress.Sizer) Config {
	return Config{
		Name:         name,
		SizeBytes:    256,
		Ways:         2,
		BlockSize:    32,
		TagFactor:    2,
		SegmentBytes: 4,
		Codec:        codec,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockSize <= 0:
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	case c.SizeBytes%(c.Ways*c.BlockSize) != 0:
		return fmt.Errorf("cache %s: size %dB not divisible by ways*block %d", c.Name, c.SizeBytes, c.Ways*c.BlockSize)
	case c.SegmentBytes <= 0 || c.BlockSize%c.SegmentBytes != 0:
		return fmt.Errorf("cache %s: block size %d not divisible by segment %d", c.Name, c.BlockSize, c.SegmentBytes)
	case c.TagFactor < 1:
		return fmt.Errorf("cache %s: tag factor %d < 1", c.Name, c.TagFactor)
	}
	return nil
}

// Victim describes a block displaced from the cache.
//
// Data is populated only for dirty victims (clean blocks need no writeback,
// so their contents are never materialized). The bytes live in a per-cache
// scratch arena that is recycled by the next cache operation: consume or copy
// them before touching the cache again. Every victim slice the cache returns
// (Result.Evicted, FillResult.Evicted, DecaySweep, DirtyBlocks) shares the
// same recycling contract.
type Victim struct {
	Addr          uint32 // block base address
	Dirty         bool   // needs writeback to NVM
	Data          []byte // raw block contents; nil unless Dirty
	WasCompressed bool   // stored compressed at eviction time (decompression needed)
}

// Result reports the outcome of a demand access.
type Result struct {
	Hit bool
	// ShadowHit reports that a miss matched a shadow tag (recently evicted
	// block): compression could have avoided this miss.
	ShadowHit bool
	// Compressed reports a hit on a compressed line (decompression on the
	// critical path).
	Compressed bool
	// Depth is the LRU stack depth of the hit (0 = MRU); -1 on miss.
	Depth int
	// Recompressed reports that a write hit on a compressed line was
	// recompressed in place (one compression operation).
	Recompressed bool
	// Expanded reports that a write hit grew the line (recompression denied
	// or encoding got bigger) and required set compaction.
	Expanded bool
	// Evicted lists blocks displaced by write-induced expansion.
	Evicted []Victim
}

// FillResult reports the outcome of inserting a block after a miss.
type FillResult struct {
	// StoredCompressed reports whether the incoming block was stored
	// compressed.
	StoredCompressed bool
	// Compressions counts compression operations performed during the fill:
	// the incoming block (if compressed) plus any resident uncompressed
	// blocks compressed to make room.
	Compressions int
	// Decompressions counts decompression operations on evicted compressed
	// dirty blocks (their raw bytes must be reconstructed for writeback).
	Decompressions int
	// AvoidableEvictions counts evictions that compressing the incoming
	// block would have avoided — the "evicted due to disabled compression"
	// signal Kagura's threshold adaptation consumes (§VI-B). Nonzero only
	// when the fill was performed with compression disabled.
	AvoidableEvictions int
	// Evicted lists displaced blocks.
	Evicted []Victim
}

// Stats aggregates cache event counts. All counters are cumulative across
// power cycles.
type Stats struct {
	Accesses       int64
	Hits           int64
	Misses         int64
	HitsCompressed int64 // hits that paid a decompression
	// HitsBeyondWays counts hits at stack depth ≥ Ways: misses avoided by
	// compression.
	HitsBeyondWays  int64
	Compressions    int64
	Decompressions  int64
	Evictions       int64
	DirtyEvictions  int64
	ShadowHits      int64 // misses that matched a shadow tag
	Fills           int64
	FillsCompressed int64
	DecayEvictions  int64
	PrefetchFills   int64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one tag + data entry.
type line struct {
	valid      bool
	addr       uint32 // block base address
	dirty      bool
	compressed bool
	segments   int    // data-array segments occupied
	data       []byte // raw (decompressed) contents, always maintained
	lastUse    int64  // cycle of last access, for decay
}

// set groups lines with an LRU order.
type set struct {
	lines []line // fixed capacity TagFactor*Ways
	order []int  // line indices, MRU first; only valid lines appear
	used  int    // data segments of valid lines (incremental usedSegments)
	// shadow holds the addresses of recently evicted blocks (the extra tag
	// entries of the VSC organization, kept live even after their data is
	// gone). A miss that hits a shadow tag is an "avoidable miss": the block
	// would still be resident had compression stretched capacity — the
	// recovery signal for ACC's predictor.
	shadow []uint32
}

// codecKind identifies the concrete codec type so the per-fill size probe can
// dispatch statically (and inline) instead of through the Codec interface.
type codecKind uint8

const (
	codecNone    codecKind = iota // no codec configured
	codecGeneric                  // codec outside the built-in set: interface dispatch
	codecBDI
	codecFPC
	codecCPack
	codecDZC
	codecBPC
	codecFVC
)

// codecKindOf classifies a codec for static dispatch.
func codecKindOf(c compress.Sizer) codecKind {
	switch c.(type) {
	case nil:
		return codecNone
	case compress.BDI:
		return codecBDI
	case compress.FPC:
		return codecFPC
	case compress.CPack:
		return codecCPack
	case compress.DZC:
		return codecDZC
	case compress.BPC:
		return codecBPC
	case compress.FVC:
		return codecFVC
	}
	return codecGeneric
}

// Cache is a set-associative, write-back, write-allocate cache with optional
// compression.
type Cache struct {
	cfg         Config
	sets        []set
	numSets     int
	segPerSet   int // data segments per set
	segPerBlock int // segments of an uncompressed block
	stats       Stats
	victimSeed  uint64 // deterministic stream for ReplRandom

	// Derived hot-path state, set once in New (never snapshotted: Restore
	// only carries mutable organization, so these survive checkpoints).
	kind      codecKind // devirtualized codec identity for size probes
	shadowCap int       // shadow-tag capacity per set
	pow2      bool      // shift/mask address decomposition is valid
	blockMask uint32    // BlockSize-1 when pow2
	blockBits uint32    // log2(BlockSize) when pow2
	setMask   uint32    // numSets-1 when pow2

	// Victim scratch, recycled at the start of every exported mutating
	// operation: victims holds the records handed back to callers, arena
	// backs their Data. Both stay valid until the next cache operation.
	victims []Victim
	arena   []byte

	// mruLine caches the line of the last successful ReadHitMRU so a repeat
	// read of the same block (sequential fetches through a block) skips the
	// set/order/line pointer chase. Only mutating operations can change which
	// line is MRU or invalidate it, and they all pass through beginOp (or
	// Restore/InvalidateAll), which resets mruBase to the noMRU sentinel —
	// never a real base, since block bases are aligned to BlockSize ≥ 2.
	mruLine *line
	mruBase uint32

	// probeMemo is a direct-mapped, content-validated memo of the per-block
	// size probe. compressedSegments is a pure function of the block bytes,
	// so an entry is served only when the stored content byte-compares equal
	// to the input — correct by construction, no invalidation needed. nil
	// when the geometry or codec makes memoization pointless.
	probeMemo []probeEntry
}

// probeEntry is one probeMemo slot. data holds the block content the stored
// (segs, ok) result was computed from.
type probeEntry struct {
	addr  uint32
	valid bool
	ok    bool
	segs  int32
	data  [64]byte
}

// probeMemoSize is the number of direct-mapped probeMemo slots per cache.
const probeMemoSize = 1024

// noMRU marks the MRU micro-cache invalid: all-ones is never a block base.
const noMRU = ^uint32(0)

// New constructs a cache. It panics on invalid configuration (programming
// error, not runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.BlockSize)
	c := &Cache{
		cfg:         cfg,
		numSets:     numSets,
		segPerSet:   cfg.Ways * cfg.BlockSize / cfg.SegmentBytes,
		segPerBlock: cfg.BlockSize / cfg.SegmentBytes,
		sets:        make([]set, numSets),
		kind:        codecKindOf(cfg.Codec),
		mruBase:     noMRU,
	}
	c.shadowCap = (cfg.TagFactor - 1) * cfg.Ways
	if c.shadowCap <= 0 {
		c.shadowCap = cfg.Ways
	}
	if isPow2(cfg.BlockSize) && isPow2(numSets) {
		c.pow2 = true
		c.blockMask = uint32(cfg.BlockSize - 1)
		c.blockBits = uint32(log2(cfg.BlockSize))
		c.setMask = uint32(numSets - 1)
	}
	if c.kind != codecNone && c.pow2 && cfg.BlockSize <= len(probeEntry{}.data) {
		c.probeMemo = make([]probeEntry, probeMemoSize)
	}
	maxTags := cfg.TagFactor * cfg.Ways
	for i := range c.sets {
		c.sets[i].lines = make([]line, maxTags)
		c.sets[i].order = make([]int, 0, maxTags)
		c.sets[i].shadow = make([]uint32, 0, c.shadowCap)
		for j := range c.sets[i].lines {
			c.sets[i].lines[j].data = make([]byte, cfg.BlockSize)
		}
	}
	c.victims = make([]Victim, 0, maxTags)
	c.arena = make([]byte, 0, maxTags*cfg.BlockSize)
	return c
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// log2 returns floor(log2(v)) for v ≥ 1.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// beginOp recycles the victim scratch. Every exported operation that can
// produce victims calls it first, which is what bounds the lifetime of
// previously returned records (see Victim).
func (c *Cache) beginOp() {
	c.victims = c.victims[:0]
	c.arena = c.arena[:0]
	c.mruBase = noMRU
}

// arenaCopy stores a dirty victim's block contents in the scratch arena.
// Growth happens via append, so slices handed out earlier in the same
// operation keep pointing at the old backing array and stay intact.
func (c *Cache) arenaCopy(src []byte) []byte {
	n := len(c.arena)
	c.arena = append(c.arena, src...)
	return c.arena[n:len(c.arena):len(c.arena)]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// blockBase aligns an address to its block. Power-of-two geometries (the
// default) take the mask path; the div/mod fallback keeps odd geometries
// working.
func (c *Cache) blockBase(addr uint32) uint32 {
	if c.pow2 {
		return addr &^ c.blockMask
	}
	return addr - addr%uint32(c.cfg.BlockSize)
}

// setIndex maps a block base to its set.
func (c *Cache) setIndex(base uint32) int {
	if c.pow2 {
		return int(base >> c.blockBits & c.setMask)
	}
	return int(base/uint32(c.cfg.BlockSize)) % c.numSets
}

// find returns the line index of base in set s, or -1.
func (s *set) find(base uint32) int {
	for _, idx := range s.order {
		if s.lines[idx].addr == base {
			return idx
		}
	}
	return -1
}

// findAt returns the line index and LRU stack depth of base, or (-1, -1).
// One scan serves lookup, depth reporting, and the subsequent touch.
func (s *set) findAt(base uint32) (idx, depth int) {
	for d, v := range s.order {
		if s.lines[v].addr == base {
			return v, d
		}
	}
	return -1, -1
}

// touchAt moves line idx, currently at stack depth d, to MRU position.
func (s *set) touchAt(idx, d int) {
	if d <= 0 {
		return
	}
	copy(s.order[1:d+1], s.order[:d])
	s.order[0] = idx
}

// usedSegments returns the data segments of valid lines. The count is
// maintained incrementally at every segment mutation; checkInvariants
// re-derives it from scratch to keep the bookkeeping honest.
func (s *set) usedSegments() int { return s.used }

// freeLine returns an invalid line index, or -1 when all tags are in use.
func (s *set) freeLine() int {
	for i := range s.lines {
		if !s.lines[i].valid {
			return i
		}
	}
	return -1
}

// removeFromOrder deletes idx from the LRU order.
func (s *set) removeFromOrder(idx int) {
	for i, v := range s.order {
		if v == idx {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// evictLRU invalidates the policy's victim line of s and returns its victim
// record. Under LRU and FIFO the victim is the order tail; under Random it
// is drawn from a deterministic hash stream.
func (c *Cache) evictLRU(s *set) Victim {
	pos := len(s.order) - 1
	if c.cfg.Replacement == ReplRandom && len(s.order) > 1 {
		c.victimSeed = c.victimSeed*0x5851f42d4c957f2d + 0x14057b7ef767814f
		pos = int((c.victimSeed >> 33) % uint64(len(s.order)))
	}
	idx := s.order[pos]
	if pos != len(s.order)-1 {
		// Move the chosen victim to the tail so the shared teardown applies.
		copy(s.order[pos:], s.order[pos+1:])
		s.order[len(s.order)-1] = idx
	}
	ln := &s.lines[idx]
	v := Victim{
		Addr:          ln.addr,
		Dirty:         ln.dirty,
		WasCompressed: ln.compressed,
	}
	if ln.dirty {
		// Only dirty victims are ever written back; clean ones carry no data.
		v.Data = c.arenaCopy(ln.data)
	}
	ln.valid = false
	ln.dirty = false
	ln.compressed = false
	s.used -= ln.segments
	ln.segments = 0
	s.order = s.order[:len(s.order)-1]
	c.pushShadow(s, v.Addr)
	c.stats.Evictions++
	if v.Dirty {
		c.stats.DirtyEvictions++
	}
	return v
}

// pushShadow records an evicted block address in the set's shadow tags. The
// shadow capacity is the extra tag space of the compressed organization:
// (TagFactor−1)×Ways entries, FIFO replacement.
func (c *Cache) pushShadow(s *set, addr uint32) {
	for i, sa := range s.shadow {
		if sa == addr {
			s.shadow = append(s.shadow[:i], s.shadow[i+1:]...)
			break
		}
	}
	s.shadow = append(s.shadow, addr)
	if len(s.shadow) > c.shadowCap {
		// Shift down in place rather than re-slicing the front away, which
		// would bleed capacity and force the next append to reallocate.
		n := copy(s.shadow, s.shadow[len(s.shadow)-c.shadowCap:])
		s.shadow = s.shadow[:n]
	}
}

// dropShadow removes addr from the shadow tags (it is resident again).
func (c *Cache) dropShadow(s *set, addr uint32) {
	for i, sa := range s.shadow {
		if sa == addr {
			s.shadow = append(s.shadow[:i], s.shadow[i+1:]...)
			return
		}
	}
}

// compressedSize probes the codec's size-only path with static dispatch on
// the concrete type: the built-in codecs are zero-size structs, so these
// calls compile to direct (inlinable) calls with no interface method lookup
// and no escape of the block to the heap.
func (c *Cache) compressedSize(data []byte) (int, bool) {
	switch c.kind {
	case codecNone:
		return 0, false
	case codecBDI:
		return compress.BDI{}.CompressedSize(data)
	case codecFPC:
		return compress.FPC{}.CompressedSize(data)
	case codecCPack:
		return compress.CPack{}.CompressedSize(data)
	case codecDZC:
		return compress.DZC{}.CompressedSize(data)
	case codecBPC:
		return compress.BPC{}.CompressedSize(data)
	case codecFVC:
		return compress.FVC{}.CompressedSize(data)
	}
	return c.cfg.Codec.CompressedSize(data)
}

// compressedSegments converts the codec's claimed byte size to segments. ok
// is false when the block is incompressible or compression would not save at
// least one segment. The probe is size-only — no encoding is materialized,
// because the cache stores raw bytes plus a segment count and never the
// encoding itself. base is the block's address, used only as a memo index:
// the result is a pure function of data, and a memo entry is served only
// after its stored content byte-compares equal to data, so the memo can
// never change an answer — it only skips recomputing one. Refetching an
// unmodified block (instruction blocks especially) hits the memo.
func (c *Cache) compressedSegments(base uint32, data []byte) (int, bool) {
	var e *probeEntry
	if c.probeMemo != nil {
		e = &c.probeMemo[(base>>c.blockBits)&(probeMemoSize-1)]
		if e.valid && e.addr == base && bytes.Equal(e.data[:len(data)], data) {
			return int(e.segs), e.ok
		}
	}
	segs, ok := c.probeSegments(data)
	if e != nil {
		e.addr = base
		e.valid = true
		e.ok = ok
		e.segs = int32(segs)
		copy(e.data[:], data)
	}
	return segs, ok
}

// probeSegments is the uncached body of compressedSegments.
func (c *Cache) probeSegments(data []byte) (int, bool) {
	size, ok := c.compressedSize(data)
	if !ok {
		return 0, false
	}
	segs := (size + c.cfg.SegmentBytes - 1) / c.cfg.SegmentBytes
	if segs < 1 {
		segs = 1
	}
	if segs >= c.segPerBlock {
		return 0, false
	}
	return segs, true
}

// Access performs a demand read or write of the word at addr. For writes,
// wdata is copied into the block at the address's offset. recompressOnWrite
// controls whether a dirtied compressed line is recompressed (compression
// enabled) or expanded to uncompressed form (compression disabled — Kagura's
// RM mode). now is the current cycle, recorded for decay.
func (c *Cache) Access(addr uint32, write bool, wdata []byte, recompressOnWrite bool, now int64) Result {
	var res Result
	c.AccessInto(&res, addr, write, wdata, recompressOnWrite, now)
	return res
}

// ReadHitMRU is the read fast path: if addr hits the set's most-recently-used
// line, it performs the access — identical stats, recency, and victim-scratch
// recycling to AccessInto — and reports whether the line is compressed. A
// depth-0 hit can never be beyond Ways and its LRU promotion is a no-op, so
// the full result struct is unnecessary. ok=false means the block is not the
// MRU line; nothing was recorded and the caller must issue the full access.
func (c *Cache) ReadHitMRU(addr uint32, now int64) (compressed, ok bool) {
	base := c.blockBase(addr)
	ln := c.mruLine
	if c.mruBase != base {
		s := &c.sets[c.setIndex(base)]
		if len(s.order) == 0 {
			return false, false
		}
		ln = &s.lines[s.order[0]]
		if ln.addr != base {
			return false, false
		}
		// Remember the hit: until the next mutating operation (every one
		// passes through beginOp, Restore, or InvalidateAll, which clear
		// this), the same block is guaranteed to still be this set's MRU
		// line, so sequential reads through the block skip the set walk.
		c.mruLine = ln
		c.mruBase = base
	}
	// No beginOp: a read hit can never produce victims, so any records a
	// previous operation handed out stay valid across it (the Victim
	// contract only promises validity until the next op that can evict).
	c.stats.Accesses++
	c.stats.Hits++
	if ln.compressed {
		c.stats.HitsCompressed++
		c.stats.Decompressions++
	}
	ln.lastUse = now
	return ln.compressed, true
}

// AccessInto is Access with a caller-provided result record. The simulator
// performs one or two accesses per instruction; writing into a reusable
// Result instead of returning ~50 bytes by value is measurable there.
func (c *Cache) AccessInto(res *Result, addr uint32, write bool, wdata []byte, recompressOnWrite bool, now int64) {
	c.beginOp()
	base := c.blockBase(addr)
	s := &c.sets[c.setIndex(base)]
	c.stats.Accesses++

	idx, depth := s.findAt(base)
	if idx < 0 {
		c.stats.Misses++
		*res = Result{Hit: false, Depth: -1}
		for _, sa := range s.shadow {
			if sa == base {
				res.ShadowHit = true
				c.stats.ShadowHits++
				break
			}
		}
		return
	}
	ln := &s.lines[idx]
	*res = Result{Hit: true, Depth: depth, Compressed: ln.compressed}
	c.stats.Hits++
	if ln.compressed {
		c.stats.HitsCompressed++
		c.stats.Decompressions++
	}
	if res.Depth >= c.cfg.Ways {
		c.stats.HitsBeyondWays++
	}
	if c.cfg.Replacement == ReplLRU {
		s.touchAt(idx, depth) // FIFO/Random never promote on access
	}
	ln.lastUse = now

	if write {
		off := int(addr - base)
		copy(ln.data[off:], wdata)
		ln.dirty = true
		if ln.compressed {
			if recompressOnWrite {
				// Decompress–modify–recompress in place.
				c.stats.Compressions++
				res.Recompressed = true
				segs, ok := c.compressedSegments(base, ln.data)
				if !ok {
					segs = c.segPerBlock
					ln.compressed = false
				}
				res.Evicted = c.resize(s, idx, segs)
				res.Expanded = len(res.Evicted) > 0
			} else {
				// Compression disabled: expand to uncompressed.
				ln.compressed = false
				res.Evicted = c.resize(s, idx, c.segPerBlock)
				res.Expanded = true
			}
		}
	}
}

// resize changes line idx's segment footprint to newSegs, evicting LRU lines
// (never idx itself) until the set's segment budget holds. Victims accumulate
// in the per-cache scratch (valid until the next operation).
func (c *Cache) resize(s *set, idx int, newSegs int) []Victim {
	s.used += newSegs - s.lines[idx].segments
	s.lines[idx].segments = newSegs
	start := len(c.victims)
	for s.usedSegments() > c.segPerSet {
		// Evict from the LRU end, skipping the line being resized.
		vIdx := -1
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] != idx {
				vIdx = s.order[i]
				break
			}
		}
		if vIdx < 0 {
			break // only the resized line remains; budget must hold by construction
		}
		// Temporarily move vIdx to LRU tail position for evictLRU simplicity.
		s.removeFromOrder(vIdx)
		s.order = append(s.order, vIdx)
		v := c.evictLRU(s)
		if v.WasCompressed && v.Dirty {
			c.stats.Decompressions++
		}
		c.victims = append(c.victims, v)
	}
	if len(c.victims) == start {
		return nil
	}
	return c.victims[start:]
}

// Fill inserts the block containing addr after a miss. data is the raw block
// contents (already merged with any write data). tryCompress asks the cache
// to store the block compressed and, if the set is full, to compress resident
// uncompressed blocks to make room — the behavior the paper describes for
// compression mode. With tryCompress false the fill is a plain LRU insert.
// lowPriority inserts at the LRU end (prefetch pollution control).
func (c *Cache) Fill(addr uint32, data []byte, dirty, tryCompress, lowPriority bool, now int64) FillResult {
	if len(data) != c.cfg.BlockSize {
		panic(fmt.Sprintf("cache %s: Fill with %dB data, block is %dB", c.cfg.Name, len(data), c.cfg.BlockSize))
	}
	c.beginOp()
	base := c.blockBase(addr)
	s := &c.sets[c.setIndex(base)]
	var res FillResult
	if idx := s.find(base); idx >= 0 {
		// Block already resident (e.g. a redundant prefetch): keep the
		// resident copy if it is dirty (it is newer than the incoming NVM
		// data), merge flags, and leave the organization alone.
		ln := &s.lines[idx]
		if !ln.dirty {
			copy(ln.data, data)
			ln.dirty = dirty
		}
		ln.lastUse = now
		return res
	}
	c.stats.Fills++

	segs := c.segPerBlock
	compressedStore := false
	avoidable := false
	if tryCompress {
		if cs, ok := c.compressedSegments(base, data); ok {
			segs = cs
			compressedStore = true
			res.Compressions++
			c.stats.Compressions++
		}
	} else if c.cfg.Codec != nil {
		// Compression disabled: check whether storing this block compressed
		// would have made the fill eviction-free, attributing any evictions
		// below to the disabled compression.
		if cs, ok := c.compressedSegments(base, data); ok && s.usedSegments()+cs <= c.segPerSet {
			avoidable = true
		}
	}

	// Make room: first try compacting resident uncompressed blocks (only in
	// compression mode), then evict LRU lines.
	for s.usedSegments()+segs > c.segPerSet {
		if tryCompress && c.compactOne(s, &res) {
			continue
		}
		if len(s.order) == 0 {
			break
		}
		v := c.evictLRU(s)
		if v.WasCompressed && v.Dirty {
			c.stats.Decompressions++
			res.Decompressions++
		}
		if avoidable {
			res.AvoidableEvictions++
		}
		c.victims = append(c.victims, v)
	}
	// Tag pressure: need a free tag entry.
	idx := s.freeLine()
	for idx < 0 {
		v := c.evictLRU(s)
		if v.WasCompressed && v.Dirty {
			c.stats.Decompressions++
			res.Decompressions++
		}
		c.victims = append(c.victims, v)
		idx = s.freeLine()
	}
	if len(c.victims) > 0 {
		res.Evicted = c.victims
	}

	c.dropShadow(s, base)
	ln := &s.lines[idx]
	ln.valid = true
	ln.addr = base
	ln.dirty = dirty
	ln.compressed = compressedStore
	ln.segments = segs
	s.used += segs
	ln.lastUse = now
	copy(ln.data, data)
	if lowPriority {
		s.order = append(s.order, idx)
		c.stats.PrefetchFills++
	} else {
		s.order = append(s.order, 0)
		copy(s.order[1:], s.order[:len(s.order)-1])
		s.order[0] = idx
	}
	res.StoredCompressed = compressedStore
	if compressedStore {
		c.stats.FillsCompressed++
	}
	return res
}

// compactOne compresses the least-recently-used resident uncompressed block,
// freeing segments without losing data. Returns false when nothing was
// compactable.
func (c *Cache) compactOne(s *set, res *FillResult) bool {
	for i := len(s.order) - 1; i >= 0; i-- {
		idx := s.order[i]
		ln := &s.lines[idx]
		if ln.compressed {
			continue
		}
		if segs, ok := c.compressedSegments(ln.addr, ln.data); ok && segs < ln.segments {
			ln.compressed = true
			s.used -= ln.segments - segs
			ln.segments = segs
			res.Compressions++
			c.stats.Compressions++
			return true
		}
	}
	return false
}

// Contains reports whether the block holding addr is resident (no LRU or
// stats side effects).
func (c *Cache) Contains(addr uint32) bool {
	base := c.blockBase(addr)
	return c.sets[c.setIndex(base)].find(base) >= 0
}

// ReadBlock copies the raw contents of the resident block holding addr into
// dst without touching LRU state or stats. It reports whether the block was
// resident.
func (c *Cache) ReadBlock(addr uint32, dst []byte) bool {
	base := c.blockBase(addr)
	s := &c.sets[c.setIndex(base)]
	idx := s.find(base)
	if idx < 0 {
		return false
	}
	copy(dst, s.lines[idx].data)
	return true
}

// DirtyBlocks returns a victim record for every dirty resident block — the
// set a JIT checkpoint must flush. Blocks remain resident and dirty. The
// returned records live in the per-cache scratch: consume them before the
// next cache operation.
func (c *Cache) DirtyBlocks() []Victim {
	c.beginOp()
	for si := range c.sets {
		s := &c.sets[si]
		for _, idx := range s.order {
			ln := &s.lines[idx]
			if ln.dirty {
				c.victims = append(c.victims, Victim{
					Addr:          ln.addr,
					Dirty:         true,
					Data:          c.arenaCopy(ln.data),
					WasCompressed: ln.compressed,
				})
			}
		}
	}
	if len(c.victims) == 0 {
		return nil
	}
	return c.victims
}

// CleanAll clears dirty bits after a checkpoint flushed them.
func (c *Cache) CleanAll() {
	for si := range c.sets {
		s := &c.sets[si]
		for _, idx := range s.order {
			s.lines[idx].dirty = false
		}
	}
}

// InvalidateAll empties the cache (power failure: volatile contents lost).
// It does NOT flush dirty data — call DirtyBlocks first if consistency
// requires it.
func (c *Cache) InvalidateAll() {
	c.mruBase = noMRU
	for si := range c.sets {
		s := &c.sets[si]
		for i := range s.lines {
			s.lines[i].valid = false
			s.lines[i].dirty = false
			s.lines[i].compressed = false
			s.lines[i].segments = 0
		}
		s.used = 0
		s.order = s.order[:0]
		s.shadow = s.shadow[:0]
	}
}

// LiveBlocks counts resident blocks.
func (c *Cache) LiveBlocks() int {
	n := 0
	for si := range c.sets {
		n += len(c.sets[si].order)
	}
	return n
}

// LiveBytes returns the raw bytes of resident blocks (for decay-gated
// leakage accounting).
func (c *Cache) LiveBytes() int { return c.LiveBlocks() * c.cfg.BlockSize }

// DecaySweep implements EDBP-style cache decay: every resident line idle for
// more than interval cycles is evicted (dirty ones are returned for
// writeback). Dead lines stop leaking and shrink checkpoints.
func (c *Cache) DecaySweep(now, interval int64) []Victim {
	c.beginOp()
	for si := range c.sets {
		s := &c.sets[si]
		for i := len(s.order) - 1; i >= 0; i-- {
			idx := s.order[i]
			ln := &s.lines[idx]
			if now-ln.lastUse <= interval {
				continue
			}
			if ln.dirty {
				// Only dirty decays are reported (they need writeback);
				// clean dead lines vanish without materializing data.
				c.victims = append(c.victims, Victim{
					Addr:          ln.addr,
					Dirty:         true,
					Data:          c.arenaCopy(ln.data),
					WasCompressed: ln.compressed,
				})
				c.stats.DirtyEvictions++
			}
			ln.valid = false
			ln.dirty = false
			ln.compressed = false
			s.used -= ln.segments
			ln.segments = 0
			s.order = append(s.order[:i], s.order[i+1:]...)
			c.stats.DecayEvictions++
			c.stats.Evictions++
		}
	}
	if len(c.victims) == 0 {
		return nil
	}
	return c.victims
}

// checkInvariants validates internal consistency; tests call it after
// mutation sequences.
func (c *Cache) checkInvariants() error {
	for si := range c.sets {
		s := &c.sets[si]
		recount := 0
		for _, idx := range s.order {
			recount += s.lines[idx].segments
		}
		if recount != s.used {
			return fmt.Errorf("set %d: incremental segment count %d, actual %d", si, s.used, recount)
		}
		if s.usedSegments() > c.segPerSet {
			return fmt.Errorf("set %d: %d segments used, budget %d", si, s.usedSegments(), c.segPerSet)
		}
		if len(s.order) > len(s.lines) {
			return fmt.Errorf("set %d: order longer than tags", si)
		}
		seen := make(map[int]bool)
		addrs := make(map[uint32]bool)
		for _, idx := range s.order {
			if seen[idx] {
				return fmt.Errorf("set %d: line %d appears twice in order", si, idx)
			}
			seen[idx] = true
			ln := &s.lines[idx]
			if !ln.valid {
				return fmt.Errorf("set %d: invalid line %d in order", si, idx)
			}
			if addrs[ln.addr] {
				return fmt.Errorf("set %d: duplicate block %#x", si, ln.addr)
			}
			addrs[ln.addr] = true
			if c.setIndex(ln.addr) != si {
				return fmt.Errorf("set %d: block %#x belongs to set %d", si, ln.addr, c.setIndex(ln.addr))
			}
			if ln.segments <= 0 || ln.segments > c.segPerBlock {
				return fmt.Errorf("set %d: line %d has %d segments", si, idx, ln.segments)
			}
			if !ln.compressed && ln.segments != c.segPerBlock {
				return fmt.Errorf("set %d: uncompressed line %d has %d segments", si, idx, ln.segments)
			}
		}
		for i := range s.lines {
			if s.lines[i].valid && !seen[i] {
				return fmt.Errorf("set %d: valid line %d missing from order", si, i)
			}
		}
	}
	return nil
}
