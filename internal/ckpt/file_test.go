package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kagura/internal/faultinject"
	"kagura/internal/frame"
)

// armPlan enables a fault plan for one test, disarming on cleanup.
func armPlan(t *testing.T, p faultinject.Plan) {
	t.Helper()
	if err := faultinject.Enable(p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

// tempLeftovers returns any .tmp- files remaining next to path.
func tempLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var leftover []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			leftover = append(leftover, e.Name())
		}
	}
	return leftover
}

func TestWriteFileAtomicWritesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")

	if err := frame.WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "first" {
		t.Fatalf("content = %q, want %q", got, "first")
	}
	if err := frame.WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("content after replace = %q, want %q", got, "second")
	}
	if left := tempLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// A fault after the bytes are written but before the rename must leave the
// previous checkpoint intact and clean up the temp file — the whole point of
// the atomic write.
func TestWriteFileAtomicFaultPreservesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := frame.WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	// ckpt.write fires twice per call; the first call above consumed occurrences
	// 1 and 2, so occurrence 4 is the post-write/pre-rename point of the next
	// call... except Enable resets occurrence counters, so arm Nth=2 now.
	armPlan(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "ckpt.write", Kind: faultinject.KindError, Nth: 2},
	}})

	err := frame.WriteFileAtomic(path, []byte("new"), 0o644)
	if err == nil {
		t.Fatal("injected pre-rename fault did not surface")
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("old checkpoint corrupted by failed write: %q", got)
	}
	if left := tempLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("failed write left temp files: %v", left)
	}
	if faultinject.CkptWrite.Fires() != 1 {
		t.Fatalf("ckpt.write fired %d times, want 1", faultinject.CkptWrite.Fires())
	}
}

// A fault before anything is written fails fast: no temp file, target
// untouched.
func TestWriteFileAtomicFaultBeforeWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := frame.WriteFileAtomic(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	armPlan(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "ckpt.write", Kind: faultinject.KindError, Nth: 1},
	}})

	if err := frame.WriteFileAtomic(path, []byte("new"), 0o644); err == nil {
		t.Fatal("injected pre-write fault did not surface")
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("old checkpoint corrupted: %q", got)
	}
	if left := tempLeftovers(t, dir); len(left) != 0 {
		t.Fatalf("failed write left temp files: %v", left)
	}
}

// An armed ckpt.encode fault surfaces as an Encode error, so chaos plans can
// kill checkpointing upstream of file IO.
func TestEncodeFaultPoint(t *testing.T) {
	snap, _ := testSnapshot(t, "jpeg", 1000)
	if _, err := Encode(snap); err != nil {
		t.Fatalf("clean encode failed: %v", err)
	}

	armPlan(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "ckpt.encode", Kind: faultinject.KindError, Nth: 1},
	}})
	if _, err := Encode(snap); err == nil {
		t.Fatal("injected encode fault did not surface")
	}
}
