// Package workload provides the 20 applications of the paper's evaluation
// (MiBench + MediaBench, §VIII) as deterministic synthetic workloads.
//
// The real benchmark binaries cannot ship with this repository, and a
// cycle-level ARM frontend is out of scope, so each application is modeled as
// a *pure function of instruction index*: At(i) returns the i-th committed
// instruction (program counter, whether it is a memory op, the address it
// touches, the value it stores). Purity makes crash recovery exact — a JIT
// checkpoint is just the instruction index — and keeps every run perfectly
// reproducible.
//
// The model captures the four properties that drive the paper's results:
//
//   - memory-op density (arithmetic intensity, Fig 17): the fraction of
//     memory slots in each loop body;
//   - locality (reuse distance vs. power-cycle length): loop iterations over
//     regions with hot/streaming/random access patterns;
//   - code footprint (ICache behavior): the loop body's PC range;
//   - value compressibility (what BDI/FPC/C-Pack/DZC see): every region has
//     a value class (zeros-heavy, narrow integers, text, pointers, random),
//     and both stored values and demand-fetched NVM contents are drawn from
//     that class.
//
// Per-app parameters are chosen so the cross-application spread matches the
// paper's qualitative structure: jpeg/jpegd are memory-bound and highly
// compressible, patricia/strings are compute-bound, blowfish/sha work on
// incompressible state in tiny working sets, and so on.
package workload

import (
	"fmt"
	"sort"
)

// Class describes the value population of a data or code region, which
// determines how well its blocks compress.
type Class int

const (
	// ClassZeros: ~70% zero words, rest narrow — compresses extremely well.
	ClassZeros Class = iota
	// ClassNarrow: small signed integers (media samples, counters).
	ClassNarrow
	// ClassText: printable ASCII bytes.
	ClassText
	// ClassPointer: word values sharing a common high base (heap pointers).
	ClassPointer
	// ClassRandom: incompressible (crypto state, hashes).
	ClassRandom
	// ClassCode: instruction words with a skewed opcode distribution.
	ClassCode
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassZeros:
		return "zeros"
	case ClassNarrow:
		return "narrow"
	case ClassText:
		return "text"
	case ClassPointer:
		return "pointer"
	case ClassRandom:
		return "random"
	case ClassCode:
		return "code"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Pattern selects how a memory slot generates addresses across iterations.
type Pattern int

const (
	// PatSeq walks the region sequentially, one word per access.
	PatSeq Pattern = iota
	// PatStride walks with an 8-word stride (one access per two blocks).
	PatStride
	// PatHot picks pseudo-random words from the region's hot prefix.
	PatHot
	// PatRand picks pseudo-random words from the whole region.
	PatRand
)

// SlotKind classifies one position in a loop body.
type SlotKind int

const (
	Arith SlotKind = iota
	Load
	Store
)

// Slot is one instruction position in a loop body.
type Slot struct {
	Kind    SlotKind
	Pattern Pattern
	Region  int // index into the app's Regions; unused for Arith
}

// Region is a data region with a value class.
type Region struct {
	Base      uint32
	SizeWords int
	HotWords  int // prefix used by PatHot (defaults to SizeWords/8)
	Class     Class
}

// Phase is a loop nest: Body repeated Iterations times.
type Phase struct {
	Iterations int64
	Body       []Slot
	CodeBase   uint32
	// CodeWords is the loop body footprint in 4-byte instruction words; the
	// PC walks [CodeBase, CodeBase+4*CodeWords) cyclically.
	CodeWords int
}

// Instr is one committed instruction.
type Instr struct {
	PC      uint32
	IsMem   bool
	IsStore bool
	Addr    uint32 // word-aligned data address (memory ops only)
	Value   uint32 // value stored (stores only)
}

// App is one synthetic application.
type App struct {
	Name    string
	Seed    uint64
	Regions []Region
	Phases  []Phase

	// derived
	phaseStart []int64 // prefix sums of phase lengths (instructions)
	memIndex   [][]int // per phase: slot position → memory-op ordinal or −1
	memPerIter []int   // per phase: memory slots per iteration
	codeChunks []int   // per phase: CodeWords / len(Body), the fetch fan-out
	total      int64
}

// Build precomputes the App's derived tables (phase prefix sums, memory-slot
// indices, hot-word defaults). The registry calls it for the built-in suite;
// callers constructing custom Apps must call it once before At.
func (a *App) Build() {
	a.phaseStart = make([]int64, len(a.Phases)+1)
	a.memIndex = make([][]int, len(a.Phases))
	a.memPerIter = make([]int, len(a.Phases))
	a.codeChunks = make([]int, len(a.Phases))
	for pi, p := range a.Phases {
		a.phaseStart[pi+1] = a.phaseStart[pi] + p.Iterations*int64(len(p.Body))
		idx := make([]int, len(p.Body))
		m := 0
		for si, s := range p.Body {
			if s.Kind == Arith {
				idx[si] = -1
			} else {
				idx[si] = m
				m++
			}
		}
		a.memIndex[pi] = idx
		a.memPerIter[pi] = m
		a.codeChunks[pi] = p.CodeWords / len(p.Body)
	}
	a.total = a.phaseStart[len(a.Phases)]
	for ri := range a.Regions {
		if a.Regions[ri].HotWords == 0 {
			a.Regions[ri].HotWords = a.Regions[ri].SizeWords / 8
			if a.Regions[ri].HotWords == 0 {
				a.Regions[ri].HotWords = 1
			}
		}
	}
}

// Len returns the program length in committed instructions.
func (a *App) Len() int64 { return a.total }

// mix64 is the SplitMix64 finalizer: the deterministic hash behind every
// pseudo-random choice in the workload model.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// At returns the i-th committed instruction. i must be in [0, Len()).
//
// At is a pure function of i, so it is safe to share an App across
// goroutines. Sequential consumers (the simulator walks i monotonically,
// except for rollbacks) should prefer a Cursor, which skips the per-call
// phase search.
func (a *App) At(i int64) Instr {
	return a.at(a.phaseOf(i), i)
}

// phaseOf locates the phase containing instruction i.
func (a *App) phaseOf(i int64) int {
	return sort.Search(len(a.Phases), func(k int) bool { return a.phaseStart[k+1] > i })
}

// at synthesizes instruction i, which must lie inside phase pi.
func (a *App) at(pi int, i int64) Instr {
	p := &a.Phases[pi]
	j := i - a.phaseStart[pi]
	bodyLen := int64(len(p.Body))
	return a.atPos(pi, j/bodyLen, int(j%bodyLen))
}

// atPos synthesizes the instruction at iteration iter, body position pos of
// phase pi. Factoring the division out of the instruction synthesis lets a
// sequential Cursor carry (iter, pos) incrementally.
func (a *App) atPos(pi int, iter int64, pos int) Instr {
	return a.atPosCached(pi, pos, a.chunkBase(pi, iter), iter*int64(a.memPerIter[pi]), a.Seed^uint64(iter)<<1)
}

// chunkBase picks the code chunk fetched by one loop iteration, returned as
// a word offset into the phase's code footprint. Chunk 0 is the hot path
// (~60% of iterations); the rest spread uniformly, so the fetch stream
// covers CodeWords words without the pathological LRU behavior of a pure
// cyclic walk (modeling dispatch across inlined call sites / switch arms).
func (a *App) chunkBase(pi int, iter int64) int {
	chunks := a.codeChunks[pi]
	if chunks <= 1 {
		return 0
	}
	h := mix64(a.Seed ^ 0xc0de ^ uint64(iter)*0x2545f4914f6cdd1d)
	if h%10 < 6 {
		return 0
	}
	return (1 + int((h>>8)%uint64(chunks-1))) * len(a.Phases[pi].Body)
}

// atPosCached is atPos with the three iteration-invariant inputs hoisted out:
// the fetch chunk's word offset, the memory-op ordinal base
// (iter×memPerIter), and the store-value seed (Seed^iter<<1). A sequential
// Cursor refreshes them once per loop iteration instead of once per
// instruction.
func (a *App) atPosCached(pi, pos, chunkBase int, ordBase int64, valSeed uint64) Instr {
	p := &a.Phases[pi]
	slot := p.Body[pos]

	// chunkBase+pos only reaches CodeWords when the phase's body is longer
	// than its code footprint (then chunkBase is 0), so the wrap is a
	// branch, not a division.
	word := chunkBase + pos
	if word >= p.CodeWords {
		word %= p.CodeWords
	}
	ins := Instr{PC: p.CodeBase + uint32(word)*4}
	if slot.Kind == Arith {
		return ins
	}
	ins.IsMem = true
	ins.IsStore = slot.Kind == Store

	r := &a.Regions[slot.Region]
	ordinal := ordBase + int64(a.memIndex[pi][pos])
	var dataWord int64
	switch slot.Pattern {
	case PatSeq:
		dataWord = ordinal % int64(r.SizeWords)
	case PatStride:
		dataWord = (ordinal * 8) % int64(r.SizeWords)
	case PatHot:
		dataWord = int64(mix64(a.Seed^uint64(ordinal)*0x9e3779b97f4a7c15) % uint64(r.HotWords))
	case PatRand:
		dataWord = int64(mix64(a.Seed^0xabcd^uint64(ordinal)*0x9e3779b97f4a7c15) % uint64(r.SizeWords))
	}
	ins.Addr = r.Base + uint32(dataWord)*4
	if ins.IsStore {
		// Store values follow the region's class but vary across iterations,
		// so dirty blocks stay representative of the class.
		ins.Value = ClassValue(r.Class, ins.Addr, valSeed)
	}
	return ins
}

// cursorBatch is the Cursor's decode-window size in instructions. One window
// amortizes the phase lookup, the per-iteration value refresh, and every
// slice-header load over 256 instructions; at 16B per Instr the buffer is
// 4KiB — one per simulator, allocated once.
const cursorBatch = 256

// Cursor is a sequential reader over an App's instruction stream. It decodes
// instructions in batches of cursorBatch into a window buffer, so the common
// monotone walk (the simulator's run loop) serves each instruction with two
// comparisons and an index — no phase search, no division, no per-call
// iteration bookkeeping. Random access still works: any index outside the
// window triggers a refill starting there, which makes the cursor
// self-healing across the simulator's position rollbacks (power failures,
// atomic-region re-execution).
//
// A Cursor holds no mutable App state: Apps stay shareable across
// goroutines, each consumer owns its cursor.
type Cursor struct {
	app   *App
	buf   []Instr // decoded window: instructions [bufLo, bufLo+len(buf))
	bufLo int64
	store [cursorBatch]Instr

	pi     int   // cached phase index of the window
	lo, hi int64 // instruction bounds of the cached phase: [lo, hi)
}

// NewCursor returns a cursor positioned before the first instruction. The
// App must already be built.
func NewCursor(app *App) Cursor {
	// bufLo = 1 with an empty buffer makes every first access miss the
	// window (including i == 0); lo == hi == 0 forces the phase search.
	return Cursor{app: app, bufLo: 1}
}

// At returns instruction i, identical to app.At(i). The pointer aims into
// the cursor's decode window and is valid until the next At call that
// misses the window — read it before advancing, don't retain it.
func (c *Cursor) At(i int64) *Instr {
	// One unsigned compare covers both bounds: i < bufLo wraps negative j
	// past any buffer length. Keeps the call under the inlining budget.
	if j := uint64(i - c.bufLo); j < uint64(len(c.buf)) {
		return &c.buf[j]
	}
	return c.refill(i)
}

// refill decodes a fresh window starting at instruction i and returns
// instruction i. The window extends to cursorBatch instructions or the end
// of i's phase, whichever is nearer; per-iteration values (fetch chunk,
// memory-op ordinal base, store-value seed) refresh only at iteration
// boundaries inside the decode loop.
func (c *Cursor) refill(i int64) *Instr {
	a := c.app
	if i < c.lo || i >= c.hi {
		c.pi = a.phaseOf(i)
		c.lo = a.phaseStart[c.pi]
		c.hi = a.phaseStart[c.pi+1]
	}
	bodyLen := int64(len(a.Phases[c.pi].Body))
	j := i - c.lo
	iter := j / bodyLen
	pos := int(j % bodyLen)

	n := c.hi - i
	if n > cursorBatch {
		n = cursorBatch
	}
	buf := c.store[:n]

	// The decode loop is App.atPosCached with every per-call lookup hoisted:
	// phase, body, memIndex, and region headers load once per window (into
	// locals, so stores through buf cannot force reloads), the
	// iteration-derived values once per iteration. The synthesized stream is
	// pinned against App.At by TestCursorMatchesApp.
	p := &a.Phases[c.pi]
	body := p.Body
	codeWords := p.CodeWords
	codeBase := p.CodeBase
	regions := a.Regions
	seed := a.Seed
	memIdx := a.memIndex[c.pi]
	memPerIter := int64(a.memPerIter[c.pi])
	chunkBase := a.chunkBase(c.pi, iter)
	ordBase := iter * memPerIter
	valSeed := seed ^ uint64(iter)<<1
	for k := range buf {
		slot := body[pos]
		word := chunkBase + pos
		if word >= codeWords {
			// chunkBase < CodeWords, so one subtraction usually wraps; the
			// division only runs for bodies longer than the code footprint.
			if word < 2*codeWords {
				word -= codeWords
			} else {
				word %= codeWords
			}
		}
		// Fields are written into the window in place: building the Instr
		// in a local and copying it stalls the 16-byte load of the copy on
		// the narrower stores that built it.
		ins := &buf[k]
		ins.PC = codeBase + uint32(word)*4
		ins.IsMem, ins.IsStore, ins.Addr, ins.Value = false, false, 0, 0
		if slot.Kind != Arith {
			ins.IsMem = true
			ins.IsStore = slot.Kind == Store
			r := &regions[slot.Region]
			ordinal := ordBase + int64(memIdx[pos])
			var dataWord int64
			switch slot.Pattern {
			case PatSeq:
				dataWord = ordinal % int64(r.SizeWords)
			case PatStride:
				dataWord = (ordinal * 8) % int64(r.SizeWords)
			case PatHot:
				dataWord = int64(mix64(seed^uint64(ordinal)*0x9e3779b97f4a7c15) % uint64(r.HotWords))
			case PatRand:
				dataWord = int64(mix64(seed^0xabcd^uint64(ordinal)*0x9e3779b97f4a7c15) % uint64(r.SizeWords))
			}
			ins.Addr = r.Base + uint32(dataWord)*4
			if ins.IsStore {
				ins.Value = ClassValue(r.Class, ins.Addr, valSeed)
			}
		}
		pos++
		if pos == int(bodyLen) {
			pos = 0
			iter++
			chunkBase = a.chunkBase(c.pi, iter)
			ordBase = iter * memPerIter
			valSeed = seed ^ uint64(iter)<<1
		}
	}
	c.buf = buf
	c.bufLo = i
	return &buf[0]
}

// ClassValue synthesizes a 32-bit value of the given class for a word
// address. It is pure, so NVM contents and store streams are reproducible.
func ClassValue(c Class, addr uint32, seed uint64) uint32 {
	h := mix64(uint64(addr)*0x9e3779b97f4a7c15 ^ seed)
	switch c {
	case ClassZeros:
		if h%10 < 7 {
			return 0
		}
		return uint32(h % 128)
	case ClassNarrow:
		// Small signed values around zero (media samples); the ±120 range
		// fits BDI's one-byte deltas and FPC's 8-bit sign-extended pattern.
		return uint32(int32(h%241) - 120)
	case ClassText:
		var v uint32
		for k := 0; k < 4; k++ {
			v |= uint32(0x20+byte((h>>(8*uint(k)))%95)) << (8 * uint(k))
		}
		return v
	case ClassPointer:
		// Shared heap base with small word-aligned offsets.
		return 0x2000_0000 | uint32(h%4096)<<2
	case ClassCode:
		// Instruction-stream-like: a dominant opcode with a narrow operand
		// field, plus literal-pool/padding zeros. Compresses moderately
		// (BDI base4-delta2 ≈ 0.7), like real embedded code.
		if h%10 < 3 {
			return 0
		}
		return 0xE500_0000 | uint32(h%0x18000)
	default: // ClassRandom
		return uint32(h)
	}
}

// classFor returns the value class governing an address: code regions are
// ClassCode, data addresses take their region's class, anything unmapped is
// narrow.
func (a *App) classFor(addr uint32) Class {
	if addr < dataBase {
		return ClassCode
	}
	for i := range a.Regions {
		r := &a.Regions[i]
		if addr >= r.Base && addr < r.Base+uint32(r.SizeWords)*4 {
			return r.Class
		}
	}
	return ClassNarrow
}

// FillBlock synthesizes the initial NVM contents of the block at base —
// the nvm.Synthesizer for this app.
func (a *App) FillBlock(base uint32, buf []byte) {
	for off := 0; off+4 <= len(buf); off += 4 {
		addr := base + uint32(off)
		v := ClassValue(a.classFor(addr), addr, a.Seed)
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
}

// MemOpFraction returns the fraction of instructions that are memory ops.
func (a *App) MemOpFraction() float64 {
	var mem, tot int64
	for pi, p := range a.Phases {
		n := p.Iterations * int64(len(p.Body))
		tot += n
		mem += p.Iterations * int64(a.memPerIter[pi])
	}
	if tot == 0 {
		return 0
	}
	return float64(mem) / float64(tot)
}

// ArithmeticIntensity returns arithmetic ops per memory op (Fig 17's x-axis).
func (a *App) ArithmeticIntensity() float64 {
	f := a.MemOpFraction()
	if f == 0 { //kagura:allow floateq exact-zero division guard
		return 0
	}
	return (1 - f) / f
}
