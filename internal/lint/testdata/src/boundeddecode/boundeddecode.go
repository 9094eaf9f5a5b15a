// Package decodefixture is a fixture for the boundeddecode analyzer: a make
// sized by a raw wire-read length is flagged; lengths bounded by a reader
// count helper or an explicit comparison pass. A lower-bound check alone (n > 0) clears nothing. The shared frame.Reader's
// exported methods are held to the same rules as the local reader's.
package decodefixture

import (
	"encoding/binary"

	"kagura/internal/frame"
)

const maxElems = 1 << 10

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// count reads a u32 element count and bounds it against the remaining
// input, assuming each element occupies at least minElemBytes; -1 means the
// buffer cannot hold the claimed count.
func (r *reader) count(minElemBytes int) int {
	n := int(r.u32())
	if n < 0 || n*minElemBytes > len(r.buf)-r.off {
		return -1
	}
	return n
}

func decodeRaw(r *reader) []uint64 {
	n := int(r.u32())
	return make([]uint64, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeInline(r *reader) []byte {
	return make([]byte, r.u32()) // want `allocation sized by an unbounded wire-read length`
}

func decodeBinary(buf []byte) []byte {
	n := binary.BigEndian.Uint16(buf)
	return make([]byte, int(n)) // want `allocation sized by an unbounded wire-read length`
}

func decodeWithCap(r *reader) []byte {
	n := int(r.u32())
	return make([]byte, 0, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeLowerBoundOnly(r *reader) []byte {
	n := int(r.u32())
	if n > 0 {
		return make([]byte, n) // want `allocation sized by an unbounded wire-read length`
	}
	return nil
}

func decodeFrameRaw(r *frame.Reader) []uint32 {
	n := int(r.U32())
	return make([]uint32, n) // want `allocation sized by an unbounded wire-read length`
}

func decodeFrameInline(r *frame.Reader) []byte {
	return make([]byte, r.U16()) // want `allocation sized by an unbounded wire-read length`
}

// --- Legal patterns: everything below must produce no findings. ---

func decodeFrameCounted(r *frame.Reader) []uint32 {
	n := r.Count(4)
	if r.Err() != nil {
		return nil
	}
	return make([]uint32, n)
}

func decodeFrameCounted16(r *frame.Reader) []uint16 {
	return make([]uint16, r.Count16(2))
}

func decodeCounted(r *reader) []uint64 {
	n := r.count(8)
	if n < 0 {
		return nil
	}
	return make([]uint64, n)
}

func decodeGuarded(r *reader) []byte {
	n := int(r.u32())
	if n > maxElems {
		return nil
	}
	return make([]byte, n)
}

func decodeCompared(r *reader) []byte {
	n := int(r.u32())
	if n <= len(r.buf)-r.off {
		return make([]byte, n)
	}
	return nil
}

func decodeSuppressed(r *reader) []byte {
	n := int(r.u32())
	//kagura:allow boundeddecode fixture: caller has already validated the frame length against the transport cap
	return make([]byte, n)
}

func allocConst() []byte {
	return make([]byte, maxElems)
}
