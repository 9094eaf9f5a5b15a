// Package nvm models the nonvolatile main memory of an energy harvesting
// system.
//
// EHSs pair a volatile SRAM cache with NVM main memory (the paper's Table I
// uses 16MB ReRAM); NVM accesses dominate the energy budget, which is why
// cache behavior matters so much. The model provides:
//
//   - parameter sets for ReRAM (default), PCM, and STT-RAM with per-block
//     read/write latency and energy, mildly scaled by memory size (the paper
//     observes in Fig 27 that larger NVM raises the energy cost per miss);
//   - a sparse backing store that records written block contents and
//     synthesizes deterministic contents for never-written addresses via a
//     caller-supplied Synthesizer (the workload's value model), so the cache
//     compressors always operate on real bytes.
package nvm

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind selects an NVM technology.
type Kind int

const (
	ReRAM Kind = iota
	PCM
	STTRAM
)

// String returns the technology name.
func (k Kind) String() string {
	switch k {
	case ReRAM:
		return "ReRAM"
	case PCM:
		return "PCM"
	case STTRAM:
		return "STTRAM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName parses a technology name.
func KindByName(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "reram":
		return ReRAM, nil
	case "pcm":
		return PCM, nil
	case "sttram", "stt-ram", "stt":
		return STTRAM, nil
	}
	return 0, fmt.Errorf("nvm: unknown kind %q", name)
}

// Params holds access latency and energy for one technology at a reference
// 16MB capacity.
type Params struct {
	Kind Kind
	// ReadLatency / WriteLatency are per-block access latencies in core
	// cycles at 200MHz. The ReRAM numbers derive from Table I's timing row
	// (tRCD 18ns + tCL 15ns + burst ≈ 40ns ≈ 8 cycles read; tWR 150ns = 30
	// cycles write).
	ReadLatencyCycles  int
	WriteLatencyCycles int
	// ReadEnergyPJPerByte / WriteEnergyPJPerByte are dynamic access energies
	// in picojoules per byte at the 16MB reference capacity.
	ReadEnergyPJPerByte  float64
	WriteEnergyPJPerByte float64
}

// ParamsFor returns the parameter set for a technology.
func ParamsFor(kind Kind) Params {
	switch kind {
	case PCM:
		// PCM: reads comparable to ReRAM, writes slower and costlier.
		return Params{Kind: PCM, ReadLatencyCycles: 12, WriteLatencyCycles: 60,
			ReadEnergyPJPerByte: 0.8, WriteEnergyPJPerByte: 4.5}
	case STTRAM:
		// STT-RAM: fast reads, writes cheaper than PCM but above ReRAM.
		return Params{Kind: STTRAM, ReadLatencyCycles: 6, WriteLatencyCycles: 24,
			ReadEnergyPJPerByte: 0.5, WriteEnergyPJPerByte: 2.0}
	default:
		return Params{Kind: ReRAM, ReadLatencyCycles: 8, WriteLatencyCycles: 30,
			ReadEnergyPJPerByte: 0.45, WriteEnergyPJPerByte: 2.2}
	}
}

// Config describes a main memory instance.
type Config struct {
	Params Params
	// SizeBytes is the memory capacity (paper default: 16MB). Capacity
	// scales access energy: each doubling beyond the 16MB reference adds ~6%
	// (longer lines, larger decoders), and halving subtracts likewise.
	SizeBytes int
}

// DefaultConfig returns the paper's default: 16MB ReRAM.
func DefaultConfig() Config {
	return Config{Params: ParamsFor(ReRAM), SizeBytes: 16 << 20}
}

// sizeFactor returns the capacity-dependent energy multiplier.
func (c Config) sizeFactor() float64 {
	const refBytes = 16 << 20
	if c.SizeBytes <= 0 {
		return 1
	}
	return math.Pow(1.06, math.Log2(float64(c.SizeBytes)/refBytes))
}

// ReadEnergy returns the energy in joules to read n bytes.
func (c Config) ReadEnergy(n int) float64 {
	return c.Params.ReadEnergyPJPerByte * float64(n) * c.sizeFactor() * 1e-12
}

// WriteEnergy returns the energy in joules to write n bytes.
func (c Config) WriteEnergy(n int) float64 {
	return c.Params.WriteEnergyPJPerByte * float64(n) * c.sizeFactor() * 1e-12
}

// Synthesizer fills buf with the deterministic "initial image" content of the
// block at addr. Workloads install a synthesizer matching their value model
// so compressibility of demand-fetched data is realistic.
type Synthesizer func(addr uint32, buf []byte)

// Memory is a sparse NVM backing store. Blocks that have been written hold
// their written bytes; all other blocks are synthesized on demand.
type Memory struct {
	cfg       Config
	blockSize int
	synth     Synthesizer
	written   map[uint32][]byte // block-aligned address → contents

	// Per-block access energies, evaluated once: the size factor is a
	// math.Pow that would otherwise run on every block access.
	readBlockJ, writeBlockJ float64

	// Access counters (block-granularity operations).
	Reads  int64
	Writes int64
}

// New creates a Memory with the given block size and content synthesizer.
// A nil synthesizer yields all-zero initial contents.
func New(cfg Config, blockSize int, synth Synthesizer) *Memory {
	if blockSize <= 0 {
		panic("nvm: non-positive block size")
	}
	return &Memory{
		cfg:         cfg,
		blockSize:   blockSize,
		synth:       synth,
		written:     make(map[uint32][]byte),
		readBlockJ:  cfg.ReadEnergy(blockSize),
		writeBlockJ: cfg.WriteEnergy(blockSize),
	}
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// BlockSize returns the block granularity in bytes.
func (m *Memory) BlockSize() int { return m.blockSize }

// align maps an address to its block base.
func (m *Memory) align(addr uint32) uint32 {
	return addr - addr%uint32(m.blockSize)
}

// ReadBlock copies the block containing addr into buf (len must equal the
// block size) and returns the access latency in cycles and energy in joules.
func (m *Memory) ReadBlock(addr uint32, buf []byte) (latency int, energy float64) {
	if len(buf) != m.blockSize {
		panic("nvm: ReadBlock buffer size mismatch")
	}
	base := m.align(addr)
	if data, ok := m.written[base]; ok {
		copy(buf, data)
	} else if m.synth != nil {
		m.synth(base, buf)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	m.Reads++
	return m.cfg.Params.ReadLatencyCycles, m.readBlockJ
}

// WriteBlock stores data as the block containing addr and returns latency in
// cycles and energy in joules.
func (m *Memory) WriteBlock(addr uint32, data []byte) (latency int, energy float64) {
	if len(data) != m.blockSize {
		panic("nvm: WriteBlock buffer size mismatch")
	}
	base := m.align(addr)
	dst, ok := m.written[base]
	if !ok {
		dst = make([]byte, m.blockSize)
		m.written[base] = dst
	}
	copy(dst, data)
	m.Writes++
	return m.cfg.Params.WriteLatencyCycles, m.writeBlockJ
}

// WriteRaw accounts for an n-byte write that does not go through the block
// store (e.g. checkpointing registers to NVFFs). Returns latency and energy.
func (m *Memory) WriteRaw(n int) (latency int, energy float64) {
	blocks := (n + m.blockSize - 1) / m.blockSize
	m.Writes += int64(blocks)
	return m.cfg.Params.WriteLatencyCycles * blocks, m.cfg.WriteEnergy(n)
}

// ReadRaw accounts for an n-byte read outside the block store.
func (m *Memory) ReadRaw(n int) (latency int, energy float64) {
	blocks := (n + m.blockSize - 1) / m.blockSize
	m.Reads += int64(blocks)
	return m.cfg.Params.ReadLatencyCycles * blocks, m.cfg.ReadEnergy(n)
}

// BlockState is one written block in a memory snapshot.
type BlockState struct {
	Addr uint32
	Data []byte
}

// Snapshot is the memory's full mutable state, exported for the simulator
// checkpoint subsystem (internal/ckpt). Blocks are sorted by address so the
// snapshot of a given memory state is always the same value regardless of
// map iteration order.
type Snapshot struct {
	Blocks []BlockState
	Reads  int64
	Writes int64
}

// Snapshot captures the written-block contents and access counters. Block
// data is deep-copied, so the snapshot stays valid as the memory mutates.
func (m *Memory) Snapshot() Snapshot {
	snap := Snapshot{Reads: m.Reads, Writes: m.Writes}
	snap.Blocks = make([]BlockState, 0, len(m.written))
	for addr, data := range m.written {
		snap.Blocks = append(snap.Blocks, BlockState{Addr: addr, Data: append([]byte(nil), data...)})
	}
	sort.Slice(snap.Blocks, func(i, j int) bool { return snap.Blocks[i].Addr < snap.Blocks[j].Addr })
	return snap
}

// Restore overwrites the written-block store and counters from a snapshot,
// deep-copying block data. Malformed snapshots (wrong block sizes, unaligned
// or duplicate addresses, negative counters) are rejected with an error.
func (m *Memory) Restore(snap Snapshot) error {
	if snap.Reads < 0 || snap.Writes < 0 {
		return fmt.Errorf("nvm: negative snapshot counters (reads %d, writes %d)", snap.Reads, snap.Writes)
	}
	written := make(map[uint32][]byte, len(snap.Blocks))
	for i, b := range snap.Blocks {
		if len(b.Data) != m.blockSize {
			return fmt.Errorf("nvm: snapshot block %d has %dB data, block size is %dB", i, len(b.Data), m.blockSize)
		}
		if b.Addr%uint32(m.blockSize) != 0 {
			return fmt.Errorf("nvm: snapshot block %d address %#x not block-aligned", i, b.Addr)
		}
		if _, dup := written[b.Addr]; dup {
			return fmt.Errorf("nvm: snapshot block address %#x appears twice", b.Addr)
		}
		written[b.Addr] = append([]byte(nil), b.Data...)
	}
	m.written = written
	m.Reads, m.Writes = snap.Reads, snap.Writes
	return nil
}

// TouchedBlocks returns how many distinct blocks have been written.
func (m *Memory) TouchedBlocks() int { return len(m.written) }

// Reset clears written contents and counters (used between simulation runs).
func (m *Memory) Reset() {
	m.written = make(map[uint32][]byte)
	m.Reads, m.Writes = 0, 0
}
