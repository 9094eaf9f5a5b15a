package cache

import (
	"testing"

	"kagura/internal/compress"
	"kagura/internal/rng"
)

// refModel is an executable specification of the compressed cache: a
// per-set list of (addr, size-in-segments) with LRU order, against which the
// real implementation's hit/miss stream is cross-validated.
type refModel struct {
	segPerSet   int
	segPerBlock int
	maxTags     int
	numSets     int
	codec       compress.Codec
	segBytes    int
	sets        [][]refLine // MRU first
}

type refLine struct {
	addr uint32
	segs int
}

// newRefModel sizes blocks with codec's full Compress, independently of the
// cache's CompressedSize probe.
func newRefModel(cfg Config, codec compress.Codec) *refModel {
	return &refModel{
		segPerSet:   cfg.Ways * cfg.BlockSize / cfg.SegmentBytes,
		segPerBlock: cfg.BlockSize / cfg.SegmentBytes,
		maxTags:     cfg.TagFactor * cfg.Ways,
		numSets:     cfg.SizeBytes / (cfg.Ways * cfg.BlockSize),
		codec:       codec,
		segBytes:    cfg.SegmentBytes,
		sets:        make([][]refLine, cfg.SizeBytes/(cfg.Ways*cfg.BlockSize)),
	}
}

func (m *refModel) setOf(base uint32) int { return int(base/32) % m.numSets }

func (m *refModel) lookup(base uint32) bool {
	si := m.setOf(base)
	for i, ln := range m.sets[si] {
		if ln.addr == base {
			// LRU promote.
			line := m.sets[si][i]
			m.sets[si] = append(m.sets[si][:i], m.sets[si][i+1:]...)
			m.sets[si] = append([]refLine{line}, m.sets[si]...)
			return true
		}
	}
	return false
}

func (m *refModel) segsFor(data []byte, tryCompress bool) int {
	if !tryCompress || m.codec == nil {
		return m.segPerBlock
	}
	if _, size, ok := m.codec.Compress(data); ok {
		segs := (size + m.segBytes - 1) / m.segBytes
		if segs < 1 {
			segs = 1
		}
		if segs < m.segPerBlock {
			return segs
		}
	}
	return m.segPerBlock
}

func (m *refModel) used(si int) int {
	n := 0
	for _, ln := range m.sets[si] {
		n += ln.segs
	}
	return n
}

// fill mirrors Cache.Fill for clean, read-only traffic: compaction of
// resident uncompressed lines first (LRU-most candidates), then LRU
// eviction.
func (m *refModel) fill(base uint32, data []byte, tryCompress bool, blockData func(uint32) []byte) {
	si := m.setOf(base)
	segs := m.segsFor(data, tryCompress)
	for m.used(si)+segs > m.segPerSet {
		if tryCompress && m.compactOne(si, blockData) {
			continue
		}
		if len(m.sets[si]) == 0 {
			break
		}
		m.sets[si] = m.sets[si][:len(m.sets[si])-1]
	}
	for len(m.sets[si]) >= m.maxTags {
		m.sets[si] = m.sets[si][:len(m.sets[si])-1]
	}
	m.sets[si] = append([]refLine{{addr: base, segs: segs}}, m.sets[si]...)
}

func (m *refModel) compactOne(si int, blockData func(uint32) []byte) bool {
	for i := len(m.sets[si]) - 1; i >= 0; i-- {
		ln := &m.sets[si][i]
		if ln.segs != m.segPerBlock {
			continue // already compressed
		}
		if segs := m.segsFor(blockData(ln.addr), true); segs < ln.segs {
			ln.segs = segs
			return true
		}
	}
	return false
}

// TestCacheMatchesReferenceModel drives the real cache and the executable
// specification with the same clean read stream and demands identical
// hit/miss decisions on every access.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, codec := range []compress.Codec{nil, compress.BDI{}, compress.DZC{}} {
		cfg := DefaultConfig("x", codec)
		c := New(cfg)
		ref := newRefModel(cfg, codec)
		r := rng.New(2024)

		blockData := func(base uint32) []byte {
			// Deterministic content per block: half compressible, half not.
			if base%64 == 0 {
				return mkBlock(byte(base >> 5))
			}
			blk := make([]byte, 32)
			h := uint64(base)*0x9e3779b97f4a7c15 + 12345
			for i := range blk {
				h ^= h >> 13
				h *= 0xff51afd7ed558ccd
				blk[i] = byte(h)
			}
			return blk
		}

		for step := 0; step < 20_000; step++ {
			base := uint32(r.Intn(40)) * 32
			tryCompress := codec != nil
			gotHit := c.Access(base, false, nil, tryCompress, int64(step)).Hit
			wantHit := ref.lookup(base)
			if gotHit != wantHit {
				t.Fatalf("codec %v step %d addr %#x: cache hit=%v, reference hit=%v",
					codec, step, base, gotHit, wantHit)
			}
			if !gotHit {
				c.Fill(base, blockData(base), false, tryCompress, false, int64(step))
				ref.fill(base, blockData(base), tryCompress, blockData)
			}
		}
	}
}
