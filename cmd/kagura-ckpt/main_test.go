package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kagura/internal/ckpt"
	"kagura/internal/store"
)

var specArgs = []string{"-app", "jpeg", "-scale", "0.004", "-codec", "BDI", "-acc"}

// legacyHash is a fingerprint as builds before the version tag wrote it.
const legacyHash = "45cbe10c4b2d733ba58721372541730e8cf4a7c2ab54b4b2341960cad5e6fb10"

// TestMain lets a test run the command itself: the test binary re-executed
// with KAGURA_CKPT_MAIN set runs main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("KAGURA_CKPT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ckptCmd runs kagura-ckpt with args and checks its exit status.
func ckptCmd(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KAGURA_CKPT_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("kagura-ckpt %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, want, out.String(), errb.String())
	}
	return out.String(), errb.String()
}

// takeCheckpoint writes a checkpoint of specArgs at cycle 500 to path and
// returns its bytes.
func takeCheckpoint(t *testing.T, path string) []byte {
	t.Helper()
	ckptCmd(t, 0, append([]string{"take", "-cycle", "500", "-o", path}, specArgs...)...)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func withConfigHash(t *testing.T, blob []byte, hash string) []byte {
	t.Helper()
	snap, err := ckpt.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	snap.ConfigHash = hash
	out, err := ckpt.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestResumeNamesLegacyFingerprint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mid.ckpt")
	blob := takeCheckpoint(t, path)

	resume := func(path string, extra ...string) string {
		args := append(append([]string{"resume"}, specArgs...), extra...)
		_, stderr := ckptCmd(t, 0, append(args, path)...)
		return stderr
	}
	if stderr := resume(path); stderr != "" {
		t.Fatalf("exact resume printed %q", stderr)
	}
	if stderr := resume(path, "-kagura"); !strings.Contains(stderr, "config differs") {
		t.Fatalf("variant resume printed %q, want the config-differs line", stderr)
	}
	legacy := filepath.Join(dir, "legacy.ckpt")
	if err := os.WriteFile(legacy, withConfigHash(t, blob, legacyHash), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr := resume(legacy)
	if !strings.Contains(stderr, "legacy fingerprint (pre-fp2), treating as a fork") || strings.Contains(stderr, "config differs") {
		t.Fatalf("legacy resume printed %q", stderr)
	}
}

func TestStoreVerifyReportsLegacyNotCorrupt(t *testing.T) {
	blob := takeCheckpoint(t, filepath.Join(t.TempDir(), "mid.ckpt"))
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for key, payload := range map[string][]byte{
		"warm|current|500": blob,
		"warm|legacy|500":  withConfigHash(t, blob, legacyHash),
	} {
		if err := st.Put(store.KindCheckpoint, key, payload); err != nil {
			t.Fatal(err)
		}
	}

	stdout, _ := ckptCmd(t, 0, "store", "verify", "-dir", dir)
	if !strings.Contains(stdout, "LEGACY  checkpoint warm|legacy|500") ||
		!strings.Contains(stdout, "verified 2 entries: 0 corrupt, 1 legacy") ||
		strings.Contains(stdout, "warm|current|500") {
		t.Fatalf("store verify printed:\n%s", stdout)
	}
	// Nothing was quarantined: a second pass sees both entries again.
	stdout, _ = ckptCmd(t, 0, "store", "verify", "-dir", dir)
	if !strings.Contains(stdout, "verified 2 entries: 0 corrupt, 1 legacy (0 more quarantined at scan)") {
		t.Fatalf("second store verify printed:\n%s", stdout)
	}

	// A checkpoint entry that fails its decoder is still corrupt.
	if err := st.Put(store.KindCheckpoint, "warm|junk|500", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	stdout, _ = ckptCmd(t, 1, "store", "verify", "-dir", dir)
	if !strings.Contains(stdout, "CORRUPT checkpoint warm|junk|500") ||
		!strings.Contains(stdout, "verified 3 entries: 1 corrupt, 1 legacy") {
		t.Fatalf("store verify printed:\n%s", stdout)
	}
}
