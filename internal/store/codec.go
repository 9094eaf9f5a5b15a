// Entry framing for the on-disk tier. Every file the store writes is one
// entry: a fixed header identifying what the payload is, followed by the
// payload bytes, with a checksum so torn or bit-flipped entries are detected
// on read instead of being decoded into garbage.
//
// Format (version 1), all integers little-endian:
//
//	magic     8  bytes  "KAGSTOR\x00"
//	version   2  bytes  uint16 (this file: 1)
//	kind      1  byte   Kind (result / checkpoint)
//	key       4+n bytes uint32 length prefix + UTF-8 key (≤ MaxKeyLen)
//	paylen    4  bytes  uint32 payload length
//	checksum  4  bytes  CRC-32C (Castagnoli) over the payload
//	payload   paylen bytes
//
// The header is a frame header and the length, checksum and payload are a
// frame block, so DecodeEntry has frame.Reader's hardening: every length
// prefix is bounded by the bytes actually remaining before any allocation,
// unknown magic/version/kind values are errors, trailing bytes are errors,
// and no input can cause a panic (FuzzStoreDecode holds the codec to that).
package store

import (
	"fmt"

	"kagura/internal/frame"
)

// Magic identifies a kagura store entry file.
const Magic = "KAGSTOR\x00"

// Version is the current entry format version. DecodeEntry refuses any other
// value: old readers must fail loudly rather than misinterpret newer layouts.
const Version uint16 = 1

// MaxKeyLen bounds the key string carried in an entry header. Keys are
// usually 64-byte SHA-256 hex, but programmatic (Do) keys are caller-chosen
// strings; 256 leaves room without letting a hostile header demand an
// unbounded allocation.
const MaxKeyLen = 256

// Kind tags what an entry's payload is.
type Kind uint8

// Entry kinds.
const (
	// KindResult payloads are ckpt.EncodeResult bytes (one ehs.Result).
	KindResult Kind = 1
	// KindCheckpoint payloads are ckpt.Encode bytes (one ehs.Snapshot).
	KindCheckpoint Kind = 2
)

// Kinds lists every valid kind, in catalog order — the iteration set for
// scans and byte-stable metric rendering.
var Kinds = []Kind{KindResult, KindCheckpoint}

// String returns the kind's directory and label name.
func (k Kind) String() string {
	switch k {
	case KindResult:
		return "result"
	case KindCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func validKind(k Kind) bool { return k == KindResult || k == KindCheckpoint }

// headerLen returns the exact encoded header size for a key.
func headerLen(key string) int {
	return frame.HeaderLen + 1 + 4 + len(key) + frame.BlockOverhead
}

// maxHeaderLen bounds how many bytes a header can occupy — what the startup
// scan reads per file instead of the payload.
const maxHeaderLen = frame.HeaderLen + 1 + 4 + MaxKeyLen + frame.BlockOverhead

// EncodeEntry frames a payload into the on-disk entry format. The encoding
// is deterministic: equal inputs produce equal bytes.
func EncodeEntry(kind Kind, key string, payload []byte) ([]byte, error) {
	if !validKind(kind) {
		return nil, fmt.Errorf("store: invalid kind %d", uint8(kind))
	}
	if len(key) == 0 || len(key) > MaxKeyLen {
		return nil, fmt.Errorf("store: key length %d outside [1, %d]", len(key), MaxKeyLen)
	}
	w := &frame.Writer{Buf: make([]byte, 0, headerLen(key)+len(payload))}
	w.Header(Magic, Version)
	w.U8(byte(kind))
	w.Str(key)
	w.Block(payload)
	return w.Buf, nil
}

// Header is the payload-free part of an entry, parsed by DecodeHeader.
type Header struct {
	Kind Kind
	Key  string
	// PayloadLen is the payload size the header claims; the full entry is
	// headerLen(Key)+PayloadLen bytes.
	PayloadLen int
	// Checksum is the header's CRC-32C claim over the payload.
	Checksum uint32
}

// DecodeHeader parses an entry header from data, which need only hold the
// header bytes (the startup scan reads at most maxHeaderLen bytes per file,
// never the payload). It validates structure — magic, version, kind, key
// bounds — but not the checksum, which requires the payload.
func DecodeHeader(data []byte) (Header, error) {
	return decodeHeader(frame.NewReader("store", data))
}

func decodeHeader(r *frame.Reader) (Header, error) {
	r.Header(Magic, Version, "entry")
	kind := Kind(r.U8())
	if r.Err() == nil && !validKind(kind) {
		return Header{}, fmt.Errorf("store: unknown entry kind %d", kind)
	}
	key := r.Str(MaxKeyLen)
	payLen, sum := r.BlockHead()
	if err := r.Err(); err != nil {
		return Header{}, err
	}
	if key == "" {
		return Header{}, fmt.Errorf("store: key length 0 outside [1, %d]", MaxKeyLen)
	}
	return Header{Kind: kind, Key: key, PayloadLen: payLen, Checksum: sum}, nil
}

// DecodeEntry parses and verifies a complete entry: header structure,
// payload length against the bytes present, checksum over the payload, and
// no trailing bytes. Any malformation is an error; no input panics.
func DecodeEntry(data []byte) (Header, []byte, error) {
	r := frame.NewReader("store", data)
	h, err := decodeHeader(r)
	if err != nil {
		return h, nil, err
	}
	payload := r.BlockBody(h.PayloadLen, h.Checksum)
	if err := r.Done("entry"); err != nil {
		return h, nil, err
	}
	return h, payload, nil
}
