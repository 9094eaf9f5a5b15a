package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kagura/internal/faultinject"
)

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func armChaos(t *testing.T, p faultinject.Plan) {
	t.Helper()
	if err := faultinject.Enable(p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newTestStore(t, Options{})
	payload := []byte("the result bytes")
	if err := s.Put(KindResult, "key-a", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindResult, "key-a")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	// Kinds are separate namespaces: the same key under the other kind misses.
	if _, ok := s.Get(KindCheckpoint, "key-a"); ok {
		t.Fatal("checkpoint namespace served a result entry")
	}
	m := s.Metrics()
	if m.ResultHits != 1 || m.CheckpointMisses != 1 || m.Writes != 1 || m.Entries != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestPutReplacesEntry(t *testing.T) {
	s := newTestStore(t, Options{})
	if err := s.Put(KindResult, "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindResult, "k", []byte("newer-bytes")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindResult, "k")
	if !ok || string(got) != "newer-bytes" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", s.Len())
	}
	want := int64(headerLen("k") + len("newer-bytes"))
	if s.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d (old size must be released)", s.Bytes(), want)
	}
}

func TestScanRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := s.Put(KindResult, key, []byte(strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(KindCheckpoint, "warm", []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	wantEntries, wantBytes := s.Entries(), s.Bytes()

	// "Restart": a fresh Store over the same directory must rebuild the same
	// index from headers alone.
	s2 := newTestStore(t, Options{Dir: dir})
	m := s2.Metrics()
	if m.Scanned != 6 || m.ScanCorrupted != 0 {
		t.Fatalf("scan metrics = %+v, want 6 scanned, 0 corrupt", m)
	}
	gotEntries := s2.Entries()
	if fmt.Sprint(gotEntries) != fmt.Sprint(wantEntries) {
		t.Fatalf("Entries after restart = %v, want %v", gotEntries, wantEntries)
	}
	if s2.Bytes() != wantBytes {
		t.Fatalf("Bytes after restart = %d, want %d", s2.Bytes(), wantBytes)
	}
	got, ok := s2.Get(KindCheckpoint, "warm")
	if !ok || string(got) != "snapshot" {
		t.Fatalf("Get after restart = %q, %v", got, ok)
	}
}

func TestEvictionOldestAccessFirst(t *testing.T) {
	entrySize := int64(headerLen("k0") + 10)
	// Budget for exactly three entries (all keys are len("k0")).
	s := newTestStore(t, Options{BudgetBytes: 3 * entrySize})
	for i := 0; i < 3; i++ {
		if err := s.Put(KindResult, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the oldest-access entry.
	if _, ok := s.Get(KindResult, "k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put(KindResult, "k3", bytes.Repeat([]byte{3}, 10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, "k1"); ok {
		t.Fatal("k1 survived eviction despite being oldest-access")
	}
	for _, key := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(KindResult, key); !ok {
			t.Fatalf("%s was evicted, want k1 only", key)
		}
	}
	if m := s.Metrics(); m.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", m.Evictions)
	}
}

func TestGCToBudget(t *testing.T) {
	s := newTestStore(t, Options{})
	for i := 0; i < 4; i++ {
		if err := s.Put(KindResult, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	entrySize := int64(headerLen("k0") + 100)
	evicted, err := s.GC(2 * entrySize)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 || s.Len() != 2 {
		t.Fatalf("GC evicted %d (Len %d), want 2 evicted, 2 left", evicted, s.Len())
	}
	// The survivors are the newest-access entries.
	for _, key := range []string{"k2", "k3"} {
		if _, ok := s.Get(KindResult, key); !ok {
			t.Fatalf("%s evicted, want oldest-first order", key)
		}
	}
}

func TestGCRemovesQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Options{Dir: dir})
	if err := s.Put(KindResult, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	flipOneBit(t, s.entryPath(KindResult, "k"))
	if _, ok := s.Get(KindResult, "k"); ok {
		t.Fatal("corrupt entry served")
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
	if _, err := s.GC(-1); err != nil {
		t.Fatal(err)
	}
	if n := quarantineCount(t, dir); n != 0 {
		t.Fatalf("quarantine holds %d files after GC, want 0", n)
	}
}

// flipOneBit corrupts the last byte of a file in place (payload territory —
// past any header), simulating on-disk rot or a torn write.
func flipOneBit(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "quarantine", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestCorruptEntryQuarantinedOnRead is the degrade-to-recompute contract at
// the read path: several damage shapes, each must produce a miss plus a
// quarantined file — never a panic, never served bytes.
func TestCorruptEntryQuarantinedOnRead(t *testing.T) {
	damage := []struct {
		name string
		hurt func(t *testing.T, path string)
	}{
		{"bit flip in payload", flipOneBit},
		{"truncated file", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"trailing garbage", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("junk"))
			f.Close()
		}},
		// A flipped key byte passes DecodeEntry (the checksum covers the
		// payload, not the header) but Get must notice the entry answers to
		// the wrong key and quarantine it.
		{"flipped key byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(Magic)+2+1+4] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"zeroed header", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(Magic); i++ {
				data[i] = 0
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore(t, Options{Dir: dir})
			if err := s.Put(KindResult, "victim", []byte("precious payload bytes")); err != nil {
				t.Fatal(err)
			}
			d.hurt(t, s.entryPath(KindResult, "victim"))
			if got, ok := s.Get(KindResult, "victim"); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			m := s.Metrics()
			if m.CorruptEntries != 1 || m.ResultMisses != 1 {
				t.Fatalf("metrics = %+v, want 1 corrupt, 1 miss", m)
			}
			if n := quarantineCount(t, dir); n != 1 {
				t.Fatalf("quarantine holds %d files, want 1", n)
			}
			// The entry is gone from the index; a later Put must repopulate.
			if err := s.Put(KindResult, "victim", []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(KindResult, "victim"); !ok || string(got) != "recomputed" {
				t.Fatalf("recomputed entry not served: %q, %v", got, ok)
			}
		})
	}
}

// TestScanQuarantinesDamagedFiles restarts over a directory holding both a
// truncated entry and an alien file; the scan must quarantine them and still
// index the healthy entries.
func TestScanQuarantinesDamagedFiles(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Options{Dir: dir})
	if err := s.Put(KindResult, "healthy", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindResult, "torn", bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	tornPath := s.entryPath(KindResult, "torn")
	data, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write: the file ends mid-payload.
	if err := os.WriteFile(tornPath, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	// An alien .kse file that was never a store entry.
	alien := filepath.Join(dir, KindResult.String(), "zz", "not-an-entry"+entryExt)
	if err := os.MkdirAll(filepath.Dir(alien), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(alien, []byte("who put this here"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestStore(t, Options{Dir: dir})
	m := s2.Metrics()
	if m.Scanned != 1 || m.ScanCorrupted != 2 || m.CorruptEntries != 2 {
		t.Fatalf("scan metrics = %+v, want 1 scanned, 2 corrupt", m)
	}
	if got, ok := s2.Get(KindResult, "healthy"); !ok || string(got) != "fine" {
		t.Fatalf("healthy entry lost: %q, %v", got, ok)
	}
	if _, ok := s2.Get(KindResult, "torn"); ok {
		t.Fatal("torn entry indexed")
	}
	if n := quarantineCount(t, dir); n != 2 {
		t.Fatalf("quarantine holds %d files, want 2", n)
	}
}

func TestInjectedWriteFaultCountsError(t *testing.T) {
	// Every+Limit rather than Nth: the point's occurrence counter also ticks
	// for the CorruptBytes call on the same path, so "the next write fails"
	// is expressed as always-fire-once.
	armChaos(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "store.write", Kind: faultinject.KindError, Every: 1, Limit: 1},
	}})
	s := newTestStore(t, Options{})
	if err := s.Put(KindResult, "k", []byte("p")); err == nil {
		t.Fatal("Put succeeded despite injected write fault")
	}
	if m := s.Metrics(); m.WriteErrors != 1 || m.Writes != 0 || m.Entries != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// The next write goes through: the fault is transient.
	if err := s.Put(KindResult, "k", []byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, "k"); !ok {
		t.Fatal("entry missing after recovered write")
	}
}

func TestInjectedReadFaultIsMiss(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Point: "store.read", Kind: faultinject.KindError, Nth: 1},
	}})
	s := newTestStore(t, Options{})
	if err := s.Put(KindResult, "k", []byte("p")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, "k"); ok {
		t.Fatal("Get succeeded despite injected read fault")
	}
	// The entry itself is intact: the next read hits.
	if _, ok := s.Get(KindResult, "k"); !ok {
		t.Fatal("entry lost to a transient read fault")
	}
	if m := s.Metrics(); m.ResultMisses != 1 || m.ResultHits != 1 || m.CorruptEntries != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestTornWriteChaosQuarantinedOnRead arms the KindCorrupt rule on
// store.write: the entry's bytes are damaged before the atomic rename, so a
// complete-but-corrupt file lands. The read path must quarantine it and miss.
func TestTornWriteChaosQuarantinedOnRead(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 42, Rules: []faultinject.Rule{
		{Point: "store.write", Kind: faultinject.KindCorrupt, Nth: 1},
	}})
	dir := t.TempDir()
	s := newTestStore(t, Options{Dir: dir})
	if err := s.Put(KindResult, "torn", bytes.Repeat([]byte{9}, 128)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, "torn"); ok {
		t.Fatal("corrupted-at-write entry served")
	}
	if m := s.Metrics(); m.CorruptEntries != 1 {
		t.Fatalf("CorruptEntries = %d, want 1", m.CorruptEntries)
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
}

func TestInjectedEvictFaultEvictsEverything(t *testing.T) {
	s := newTestStore(t, Options{})
	if err := s.Put(KindResult, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Armed after the first Put (the eviction point also fires during Open's
	// scan): the next eviction pass treats the budget as zero and empties the
	// store — callers must just recompute.
	armChaos(t, faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Point: "store.evict", Kind: faultinject.KindError, Every: 1, Limit: 1},
	}})
	if err := s.Put(KindResult, "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0 after premature-eviction fault", s.Len())
	}
	if err := s.Put(KindResult, "c", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindResult, "c"); !ok {
		t.Fatal("store unusable after eviction fault")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}

func TestUnboundedBudgetNeverEvicts(t *testing.T) {
	s := newTestStore(t, Options{BudgetBytes: -1})
	for i := 0; i < 20; i++ {
		if err := s.Put(KindResult, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20 under unbounded budget", s.Len())
	}
	if m := s.Metrics(); m.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", m.Evictions)
	}
}

func TestAccessOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Options{Dir: dir})
	payload := bytes.Repeat([]byte{1}, 50)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, key := range []string{"old", "mid", "new"} {
		if err := s.Put(KindResult, key, payload); err != nil {
			t.Fatal(err)
		}
		// Pin distinct ModTimes: sub-second writes can collide on coarse
		// filesystem timestamp granularity, and the scan orders by ModTime.
		mod := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(s.entryPath(KindResult, key), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// Restart, then shrink the budget to two entries: "old" — written first,
	// ModTime-oldest — must be the eviction victim.
	s2 := newTestStore(t, Options{Dir: dir})
	entrySize := int64(headerLen("old") + len(payload))
	if _, err := s2.GC(2 * entrySize); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(KindResult, "old"); ok {
		t.Fatal("oldest entry survived post-restart GC")
	}
	for _, key := range []string{"mid", "new"} {
		if _, ok := s2.Get(KindResult, key); !ok {
			t.Fatalf("%s evicted, want oldest-first order after restart", key)
		}
	}
}

// TestQuarantineKeepsEarlierEvidence quarantines the same key in two
// successive opens of one directory. Each move must land under a fresh
// name: a restart must never overwrite what an earlier run set aside.
func TestQuarantineKeepsEarlierEvidence(t *testing.T) {
	dir := t.TempDir()
	for run := 1; run <= 2; run++ {
		s := newTestStore(t, Options{Dir: dir})
		if err := s.Put(KindResult, "k", []byte(fmt.Sprintf("payload %d", run))); err != nil {
			t.Fatal(err)
		}
		s.Quarantine(KindResult, "k")
		if n := quarantineCount(t, dir); n != run {
			t.Fatalf("after open %d quarantine holds %d files, want %d", run, n, run)
		}
	}
}

// TestLoadBooksTheCallersVerdict pins Load's accounting: a hit is booked
// only when the caller accepts the payload; a stale verdict is a miss that
// keeps the entry; any other rejection is a miss that quarantines it.
func TestLoadBooksTheCallersVerdict(t *testing.T) {
	damaged := errors.New("payload fails its decoder")
	cases := []struct {
		name            string
		verdict         error
		hit, kept       bool
		corrupt, misses int64
	}{
		{"accepted", nil, true, true, 0, 0},
		{"stale", fmt.Errorf("old scheme: %w", ErrStale), false, true, 0, 1},
		{"rejected", damaged, false, false, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore(t, Options{Dir: dir})
			if err := s.Put(KindCheckpoint, "k", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			var seen []byte
			hit := s.Load(KindCheckpoint, "k", func(p []byte) error {
				seen = p
				return tc.verdict
			})
			if hit != tc.hit || string(seen) != "payload" {
				t.Fatalf("Load = %v after seeing %q; want %v after %q", hit, seen, tc.hit, "payload")
			}
			m := s.Metrics()
			wantHits := int64(0)
			if tc.hit {
				wantHits = 1
			}
			if m.CheckpointHits != wantHits || m.CheckpointMisses != tc.misses || m.CorruptEntries != tc.corrupt {
				t.Fatalf("hits %d, misses %d, corrupt %d; want %d, %d, %d",
					m.CheckpointHits, m.CheckpointMisses, m.CorruptEntries, wantHits, tc.misses, tc.corrupt)
			}
			if kept := s.Len() == 1; kept != tc.kept {
				t.Fatalf("entry kept = %v, want %v", kept, tc.kept)
			}
			if n := quarantineCount(t, dir); n != int(tc.corrupt) {
				t.Fatalf("quarantine holds %d files, want %d", n, tc.corrupt)
			}
		})
	}
}

// TestLoadRejectionSparesAReplacedEntry rejects a payload while a Put lands
// the entry's successor: the verdict is about the old bytes, so the new
// entry must stay indexed and readable.
func TestLoadRejectionSparesAReplacedEntry(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Options{Dir: dir})
	if err := s.Put(KindResult, "k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if s.Load(KindResult, "k", func([]byte) error {
		if err := s.Put(KindResult, "k", []byte("new")); err != nil {
			t.Error(err)
		}
		return errors.New("old payload fails its decoder")
	}) {
		t.Fatal("a rejected payload was served")
	}
	got, ok := s.Get(KindResult, "k")
	if !ok || string(got) != "new" {
		t.Fatalf("Get = %q, %v; want the replacement", got, ok)
	}
	if m := s.Metrics(); m.CorruptEntries != 0 || quarantineCount(t, dir) != 0 {
		t.Fatalf("corrupt %d, quarantine %d; want the replacement left alone", m.CorruptEntries, quarantineCount(t, dir))
	}
}
