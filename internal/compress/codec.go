// Package compress implements cache-block compression algorithms: the four
// the paper evaluates (§II-B, Fig 23) — Base-Delta-Immediate (BDI), Frequent
// Pattern Compression (FPC), C-Pack and Dynamic Zero Compression (DZC) — and
// two related compressors of §IX, Bit-Plane Compression (BPC) and Frequent
// Value Compression (FVC); Extended returns all six.
//
// All six are real, lossless implementations that operate on raw block
// bytes, and their round-trip fidelity is property-tested rather than
// assumed. The simulated cache stores raw bytes and a segment count, never
// an encoding, so it holds only a Sizer: each codec reports the compressed
// size its hardware encoding would occupy (including metadata bits) plus
// compression/decompression latency and energy scale factors relative to
// the paper's BDI reference costs (Table I: 3.84 pJ compress, 0.65 pJ
// decompress).
package compress

import (
	"fmt"
	"strings"
)

// Sizer is what the simulator needs of a compressor: the size a block
// compresses to and what compressing and decompressing it costs. The cache
// and the simulator's configuration hold a Sizer, so a size probe on the
// fill/writeback hot path cannot materialize an encoding.
type Sizer interface {
	// Name returns the algorithm name as used in the paper.
	Name() string
	// CompressedSize returns exactly the (size, ok) pair Compress would
	// report for the block, without materializing the encoding.
	// Implementations MUST be allocation-free: size probes run on every
	// cache fill and writeback. TestCompressedSizeMatchesCompress pins the
	// equivalence per codec.
	CompressedSize(block []byte) (size int, ok bool)
	// CompressLatency and DecompressLatency are per-block latencies in core
	// cycles.
	CompressLatency() int
	DecompressLatency() int
	// CompressEnergyScale and DecompressEnergyScale multiply the reference
	// per-block energies (BDI ≡ 1.0).
	CompressEnergyScale() float64
	DecompressEnergyScale() float64
}

// Codec is a lossless cache-block compressor: a Sizer that can also build
// and decode the encoding.
type Codec interface {
	Sizer
	// Compress encodes the block. It returns the encoded bytes and the size
	// in bytes the encoding occupies in the data array (including metadata).
	// If the block is incompressible under this algorithm, ok is false and
	// the caller must store the block uncompressed.
	Compress(block []byte) (enc []byte, size int, ok bool)
	// Decompress reconstructs the original block into dst (len(dst) must be
	// the original block size). Implementations must not retain or allocate
	// beyond dst: callers reuse one scratch block across calls.
	Decompress(enc []byte, dst []byte) error
}

// ByName returns the codec for one of the paper's algorithm names.
func ByName(name string) (Codec, error) {
	switch strings.ToLower(name) {
	case "bdi":
		return BDI{}, nil
	case "fpc":
		return FPC{}, nil
	case "cpack", "c-pack":
		return CPack{}, nil
	case "dzc":
		return DZC{}, nil
	case "bpc":
		return BPC{}, nil
	case "fvc", "cc":
		return FVC{}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %q", name)
}

// Names lists the algorithms of the paper's Fig 23 study, in its order.
func Names() []string { return []string{"BDI", "FPC", "C-Pack", "DZC"} }

// All returns one instance of each Fig 23 codec, in Names order.
func All() []Codec { return []Codec{BDI{}, FPC{}, CPack{}, DZC{}} }

// Extended returns every implemented codec: the Fig 23 four plus the related
// compressors of §IX (Bit-Plane Compression and Frequent Value Compression).
func Extended() []Codec { return append(All(), BPC{}, FVC{}) }
