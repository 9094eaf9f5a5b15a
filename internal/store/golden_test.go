package store

import (
	"bytes"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// goldenEntries are the version-1 entry bytes, one per kind, in full. A
// change here is a format change, which needs a version bump and a
// migration test.
var goldenEntries = []struct {
	kind    Kind
	key     string
	payload string
	hex     string
}{
	{KindResult, "golden-result-key", "result payload bytes",
		"4b414753544f520001000111000000676f6c64656e2d726573756c742d6b65791400000026f91066726573756c74207061796c6f6164206279746573"},
	{KindCheckpoint, "warm|golden-base|1000", "checkpoint payload bytes",
		"4b414753544f5200010002150000007761726d7c676f6c64656e2d626173657c31303030180000003e7a22aa636865636b706f696e74207061796c6f6164206279746573"},
}

func TestGoldenEntryBytes(t *testing.T) {
	for _, g := range goldenEntries {
		data, err := EncodeEntry(g.kind, g.key, []byte(g.payload))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != g.hex {
			t.Errorf("EncodeEntry(%s) =\n%s\nwant\n%s", g.kind, got, g.hex)
		}
		h, payload, err := DecodeEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		if h.Kind != g.kind || h.Key != g.key || string(payload) != g.payload {
			t.Errorf("DecodeEntry(%s) = %+v %q", g.kind, h, payload)
		}
	}
}

// fixtureEntries are the entries in testdata/v1, a store directory written
// by Put at format version 1.
var fixtureEntries = []struct {
	kind    Kind
	key     string
	payload string
}{
	{KindResult, "result-a", "first result payload"},
	{KindResult, "result-b", "second result payload, a little longer than the first"},
	{KindCheckpoint, "warm|base-a|250000", "checkpoint payload"},
}

// TestFixtureDirectoryServesEveryEntry opens a copy of a store directory
// written by an earlier build: the scan must index every entry, quarantine
// nothing, and serve each payload byte for byte.
func TestFixtureDirectoryServesEveryEntry(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v1"), dir)
	s, err := Open(Options{Dir: dir, BudgetBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Scanned != int64(len(fixtureEntries)) || m.ScanCorrupted != 0 {
		t.Fatalf("scan indexed %d entries and quarantined %d, want %d and 0", m.Scanned, m.ScanCorrupted, len(fixtureEntries))
	}
	for _, e := range fixtureEntries {
		got, ok := s.Get(e.kind, e.key)
		if !ok || !bytes.Equal(got, []byte(e.payload)) {
			t.Errorf("Get(%s, %q) = %q, %v; want %q", e.kind, e.key, got, ok, e.payload)
		}
	}
	if n := quarantineCount(t, dir); n != 0 {
		t.Fatalf("quarantine holds %d files, want 0", n)
	}
}

// copyTree copies the regular files under src into dst, keeping the layout.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
