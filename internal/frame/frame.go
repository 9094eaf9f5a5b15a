// Package frame is the one binary framing behind every file the service
// persists — checkpoints and results (ckpt), store entries (store) and
// journal segments (journal) — and the two file moves they share:
// WriteFileAtomic commits a file, Quarantine sets a damaged one aside.
//
// Each format lays out the same pieces (DESIGN.md §9.3): a header (8-byte
// magic + uint16 version), little-endian fixed-width fields and
// length-prefixed strings, and blocks (uint32 length + CRC-32C + payload).
// Writer appends them and cannot fail. Reader carries the first error, so
// decoders read straight-line; it bounds every count by the bytes remaining
// before anything is taken, and no input can make it panic.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// HeaderLen is the size of the magic + version header (every magic is 8
// bytes); BlockOverhead is what a block adds before its payload.
const (
	HeaderLen     = 8 + 2
	BlockOverhead = 4 + 4
)

// crcTable is the Castagnoli polynomial table. CRC-32C has hardware support
// on common CPUs and reliably catches the small bit-flip corruption a torn
// write or a chaos plan produces.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer accumulates an encoding in Buf. Appends cannot fail.
type Writer struct {
	Buf []byte
}

func (w *Writer) U8(v uint8)    { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16)  { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32)  { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)  { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a uint32 length prefix, then b.
func (w *Writer) Bytes(b []byte) { w.U32(uint32(len(b))); w.Buf = append(w.Buf, b...) }
func (w *Writer) Str(s string)   { w.U32(uint32(len(s))); w.Buf = append(w.Buf, s...) }

// Header writes the 8-byte magic and the version.
func (w *Writer) Header(magic string, version uint16) {
	w.Buf = append(w.Buf, magic...)
	w.U16(version)
}

// Block writes payload's length, its CRC-32C, then payload.
func (w *Writer) Block(payload []byte) {
	w.U32(uint32(len(payload)))
	w.U32(crc32.Checksum(payload, crcTable))
	w.Buf = append(w.Buf, payload...)
}

// Reader parses an encoding, carrying the first error. Errors name the
// owning package (the prefix given to NewReader) and the offset reached.
type Reader struct {
	data   []byte
	off    int
	err    error
	prefix string
}

// NewReader returns a Reader over data whose errors begin with prefix.
func NewReader(prefix string, data []byte) *Reader {
	return &Reader{data: data, prefix: prefix}
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) remaining() int { return len(r.data) - r.off }

// fail records an error at the current offset unless one is already set.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+": "+format+" at offset %d", append(args, r.off)...)
	}
}

// take returns the next n bytes without copying them, or nil on error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("truncated: need %d bytes, have %d", n, r.remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// zeros is what fixed-width reads see once the reader has failed.
var zeros [8]byte

// fixed takes n ≤ 8 bytes, or returns zeros once the reader has failed.
func (r *Reader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *Reader) U8() uint8    { return r.fixed(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.fixed(8)) }
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.fail("invalid boolean byte %#x", b)
		return false
	}
	return b == 1
}

// Count reads a uint32 element count and bounds it by the bytes remaining:
// a hostile prefix can never force an allocation larger than the input.
func (r *Reader) Count(minElemBytes int) int { return r.bound(int(r.U32()), minElemBytes) }

// Count16 is Count for uint16-prefixed collections.
func (r *Reader) Count16(minElemBytes int) int { return r.bound(int(r.U16()), minElemBytes) }

func (r *Reader) bound(n, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if n*minElemBytes > r.remaining() {
		r.fail("count %d exceeds remaining input (%d bytes, ≥%d each)", n, r.remaining(), minElemBytes)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte string into a fresh slice; empty
// strings decode as nil.
func (r *Reader) Bytes() []byte {
	b := r.take(r.Count(1))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string of at most maxLen bytes.
func (r *Reader) Str(maxLen int) string {
	n := r.Count(1)
	if n > maxLen {
		r.fail("string length %d exceeds limit %d", n, maxLen)
	}
	return string(r.take(n))
}

// Header reads the magic and version and checks them against the expected
// values; what names the format in the error. Readers refuse every version
// but their own: a format change bumps the version, and an old reader must
// fail loudly rather than misread a newer layout.
func (r *Reader) Header(magic string, version uint16, what string) {
	if m := r.take(len(magic)); r.err == nil && string(m) != magic {
		r.err = fmt.Errorf("%s: bad %s magic %q", r.prefix, what, m)
	}
	if v := r.U16(); r.err == nil && v != version {
		r.err = fmt.Errorf("%s: unknown %s version %d (this build reads version %d)", r.prefix, what, v, version)
	}
}

// BlockHead reads a block's payload length and checksum, leaving the
// payload itself unread (a scan that needs only headers stops here).
func (r *Reader) BlockHead() (n int, sum uint32) {
	return int(r.U32()), r.U32()
}

// BlockBody takes the n payload bytes a BlockHead announced and checks them
// against sum. The payload is returned without copying.
func (r *Reader) BlockBody(n int, sum uint32) []byte {
	payload := r.take(n)
	if r.err != nil {
		return nil
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		r.fail("payload checksum %08x does not match %08x", got, sum)
		return nil
	}
	return payload
}

// Block reads a whole block whose payload may not exceed maxLen bytes.
func (r *Reader) Block(maxLen int) []byte {
	n, sum := r.BlockHead()
	if r.err == nil && n > maxLen {
		r.fail("payload %d bytes exceeds limit %d", n, maxLen)
	}
	return r.BlockBody(n, sum)
}

// Done returns the first error or, if there was none, an error when input
// remains unread after what.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("%s: %d trailing bytes after %s", r.prefix, r.remaining(), what)
	}
	return r.err
}
