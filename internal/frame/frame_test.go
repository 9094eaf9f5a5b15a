package frame

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

const (
	testMagic   = "KAGTEST\x00"
	testVersion = 3
)

// encodeAll writes one of every field, a header first and a block last.
func encodeAll() []byte {
	w := &Writer{}
	w.Header(testMagic, testVersion)
	w.U8(7)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.I64(-42)
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bytes([]byte("raw"))
	w.Str("text")
	w.Block([]byte("payload"))
	return w.Buf
}

func TestRoundTrip(t *testing.T) {
	r := NewReader("test", encodeAll())
	r.Header(testMagic, testVersion, "test")
	if r.U8() != 7 || r.U16() != 0xbeef || r.U32() != 0xdeadbeef || r.I64() != -42 ||
		!math.IsInf(r.F64(), -1) || !r.Bool() {
		t.Fatal("fixed-width fields did not round-trip")
	}
	if b, s := r.Bytes(), r.Str(4); string(b) != "raw" || s != "text" {
		t.Fatalf("strings = %q %q", b, s)
	}
	if p := r.Block(16); string(p) != "payload" {
		t.Fatalf("block payload = %q", p)
	}
	if err := r.Done("test"); err != nil {
		t.Fatal(err)
	}
}

// TestRejects walks the damage each format relies on the reader to catch.
// Every case must error, and none may panic.
func TestRejects(t *testing.T) {
	good := encodeAll()
	boolAt := HeaderLen + 1 + 2 + 4 + 8 + 8
	blockAt := len(good) - BlockOverhead - len("payload")
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x02
		return b
	}
	cases := []struct {
		name             string
		data             []byte
		strMax, blockMax int
	}{
		{"empty", nil, 4, 16},
		{"bad magic", flip(0), 4, 16},
		{"bad version", flip(8), 4, 16},
		{"truncated", good[:len(good)-1], 4, 16},
		{"trailing byte", append(append([]byte(nil), good...), 0), 4, 16},
		{"bad boolean", flip(boolAt), 4, 16},
		{"string over limit", good, 3, 16},
		{"block over limit", good, 4, 3},
		{"huge block length", flip(blockAt + 3), 4, 16},
		{"flipped checksum", flip(blockAt + 4), 4, 16},
		{"flipped payload", flip(len(good) - 1), 4, 16},
	}
	for _, tc := range cases {
		r := NewReader("test", tc.data)
		r.Header(testMagic, testVersion, "test")
		r.U8()
		r.U16()
		r.U32()
		r.I64()
		r.F64()
		r.Bool()
		r.Bytes()
		r.Str(tc.strMax)
		r.Block(tc.blockMax)
		if r.Done("test") == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// A hostile count can never exceed what the remaining bytes could hold.
func TestCountBoundedByRemainingInput(t *testing.T) {
	w := &Writer{}
	w.U32(1 << 30)
	w.Buf = append(w.Buf, make([]byte, 16)...)
	r := NewReader("test", w.Buf)
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, err %v; want 0 and an error", n, r.Err())
	}
	w = &Writer{}
	w.U16(4)
	w.Buf = append(w.Buf, make([]byte, 8)...)
	r = NewReader("test", w.Buf)
	if n := r.Count16(2); n != 4 || r.Err() != nil {
		t.Fatalf("Count16 = %d, err %v; want 4 and no error", n, r.Err())
	}
}

// Once an error is set every accessor is a no-op and the first error wins.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader("test", []byte{1})
	r.U32()
	first := r.Err()
	if first == nil {
		t.Fatal("short read did not fail")
	}
	if r.U8() != 0 || r.Offset() != 0 || r.Err() != first {
		t.Fatal("reader advanced or replaced its error after failing")
	}
}

// Quarantine takes the first free number, so a second move of a file with
// the same name keeps the first.
func TestQuarantineTakesFirstFreeNumber(t *testing.T) {
	dir := t.TempDir()
	qdir := filepath.Join(dir, "quarantine")
	bad := filepath.Join(dir, "entry.kse")
	for i, content := range []string{"first", "second"} {
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		Quarantine(qdir, bad)
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Fatalf("move %d left the source in place", i+1)
		}
	}
	for name, want := range map[string]string{"000001-entry.kse": "first", "000002-entry.kse": "second"} {
		got, err := os.ReadFile(filepath.Join(qdir, name))
		if err != nil || !bytes.Equal(got, []byte(want)) {
			t.Fatalf("%s = %q, %v; want %q", name, got, err, want)
		}
	}
}
