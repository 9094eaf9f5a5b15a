package ckpt

import (
	"fmt"

	"kagura/internal/ehs"
	"kagura/internal/frame"
)

// ResultMagic identifies a serialized standalone result (the payload of a
// store KindResult entry), distinct from a full checkpoint's Magic.
const ResultMagic = "KAGRES\x00\x00"

// EncodeResult serializes one simulation result to the same versioned binary
// format checkpoints embed it in — deterministic, so the persistent store's
// byte-identical restart invariant holds: equal results produce equal bytes.
func EncodeResult(res *ehs.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("ckpt: nil result")
	}
	w := &frame.Writer{Buf: make([]byte, 0, 1<<10)}
	w.Header(ResultMagic, Version)
	writeResult(w, res)
	return w.Buf, nil
}

// DecodeResult parses a standalone result. Like Decode, it is hardened
// against arbitrary input: truncation, oversized length prefixes, and
// trailing bytes are errors; no input panics.
func DecodeResult(data []byte) (*ehs.Result, error) {
	r := frame.NewReader("ckpt", data)
	r.Header(ResultMagic, Version, "result")
	res := &ehs.Result{}
	readResult(r, res)
	if err := r.Done("result"); err != nil {
		return nil, err
	}
	return res, nil
}
