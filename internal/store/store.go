// Package store is the persistent tier of the result and checkpoint caches:
// a content-addressed, crash-safe on-disk store that survives restarts and
// deploys. The memory tier (simsvc's one LRU cache of results and
// warm-start snapshots, keyed by the same kind and key) stays in front;
// misses there fall through here before paying for a simulation, and
// publishes write through asynchronously (the background pump lives in
// simsvc — this package spawns no goroutines and reads no clocks, which
// keeps it inside the simdeterminism core-package set).
//
// Layout: one file per entry under a 256-way fanout keyed by the SHA-256 of
// the entry key —
//
//	<dir>/result/ab/<sha256(key)>.kse
//	<dir>/checkpoint/57/<sha256(key)>.kse
//	<dir>/quarantine/…             (corrupt entries, moved aside for forensics)
//
// Every write goes through frame.WriteFileAtomic (temp + fsync + rename), so
// a crash mid-publish leaves either no entry or a complete one. Reads verify
// the framed header and payload checksum (codec.go); a corrupt or torn entry
// is quarantined and reported as a miss — the caller degrades to recompute,
// never crashes. The startup scan rebuilds the index from headers alone,
// without reading payloads.
//
// Access order for eviction is a logical clock: every hit or write bumps a
// counter, and eviction removes the smallest-counter (oldest-access) entries
// until the store is back under its byte budget. The scan seeds the clock
// from file modification order so eviction priority survives restarts
// approximately; the clock never reads the host time.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kagura/internal/faultinject"
	"kagura/internal/frame"
)

// DefaultBudgetBytes is the default disk budget: 1 GiB.
const DefaultBudgetBytes = 1 << 30

// entryExt is the entry file extension ("kagura store entry").
const entryExt = ".kse"

// Options configures a Store.
type Options struct {
	// Dir is the store's root directory; created if absent.
	Dir string
	// BudgetBytes bounds the payload bytes retained on disk; beyond it the
	// oldest-access entries are evicted (0 ⇒ DefaultBudgetBytes, negative ⇒
	// unbounded).
	BudgetBytes int64
}

// entryKey identifies one entry: a kind and the caller's content key.
type entryKey struct {
	kind Kind
	key  string
}

// meta is the index record for one on-disk entry. Payloads are never held in
// memory here — the memory tier in front of the store owns that budget.
type meta struct {
	path   string
	size   int64 // whole file: header + payload
	access int64 // logical access clock at last hit/write
}

// metrics holds the store counters; guarded by Store.mu.
type metrics struct {
	hits          map[Kind]int64
	misses        map[Kind]int64
	writes        int64
	writeErrors   int64
	evictions     int64
	corruptTotal  int64
	scanned       int64 // entries indexed by the startup scan
	scanCorrupted int64 // entries quarantined by the startup scan
}

// MetricsSnapshot is a point-in-time view of the store counters.
type MetricsSnapshot struct {
	// Entries and Bytes are current occupancy (whole files, header included).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// BudgetBytes is the configured eviction bound (negative = unbounded).
	BudgetBytes int64 `json:"budgetBytes"`
	// Hit/miss outcomes per kind.
	ResultHits       int64 `json:"resultHits"`
	ResultMisses     int64 `json:"resultMisses"`
	CheckpointHits   int64 `json:"checkpointHits"`
	CheckpointMisses int64 `json:"checkpointMisses"`
	// Writes that landed and writes that failed (IO or injected faults).
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"writeErrors"`
	// Evictions under the byte budget.
	Evictions int64 `json:"evictions"`
	// CorruptEntries counts entries quarantined for failing structural or
	// checksum validation — at scan, on read, or by Verify.
	CorruptEntries int64 `json:"corruptEntries"`
	// Startup scan outcome: entries indexed and entries quarantined.
	Scanned       int64 `json:"scanned"`
	ScanCorrupted int64 `json:"scanCorrupted"`
}

// Store is the on-disk tier. All methods are safe for concurrent use; disk
// IO happens under the store mutex, which is fine at this tier — a read is
// microseconds against the seconds a simulation costs.
type Store struct {
	mu     sync.Mutex
	dir    string
	budget int64
	index  map[entryKey]*meta
	bytes  int64
	clock  int64
	met    metrics
}

// Open opens (creating if needed) the store rooted at opts.Dir and rebuilds
// the index with a payload-free scan. Unreadable, torn, or structurally
// invalid entries found by the scan are quarantined, not fatal: Open fails
// only when the directory itself cannot be created or listed.
func Open(opts Options) (*Store, error) {
	if err := faultinject.StoreOpen.FireErr(); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", opts.Dir, err)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	budget := opts.BudgetBytes
	if budget == 0 {
		budget = DefaultBudgetBytes
	}
	s := &Store{
		dir:    opts.Dir,
		budget: budget,
		index:  make(map[entryKey]*meta),
		met: metrics{
			hits:   make(map[Kind]int64),
			misses: make(map[Kind]int64),
		},
	}
	for _, kind := range Kinds {
		if err := os.MkdirAll(filepath.Join(s.dir, kind.String()), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := os.MkdirAll(s.quarantineDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scanFile is one candidate entry found on disk, ordered for deterministic
// index rebuilding.
type scanFile struct {
	path string
	kind Kind
	size int64
	mod  int64 // ModTime in nanoseconds; orders the seeded access clock
}

// scan rebuilds the index by reading only each file's header — never the
// payload. Files that are too short, fail header validation, claim a payload
// length that disagrees with their size, or carry a key that doesn't hash to
// their filename are quarantined and counted corrupt.
func (s *Store) scan() error {
	var files []scanFile
	for _, kind := range Kinds {
		root := filepath.Join(s.dir, kind.String())
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != entryExt {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return nil // raced with a concurrent delete; skip
			}
			files = append(files, scanFile{path: path, kind: kind, size: info.Size(), mod: info.ModTime().UnixNano()})
			return nil
		})
		if err != nil {
			return fmt.Errorf("store: scan %s: %w", root, err)
		}
	}
	// Oldest modification first, path as the deterministic tiebreaker, so the
	// seeded access clock reproduces the pre-restart eviction priority.
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		h, err := readHeader(f.path)
		switch {
		case err != nil,
			int64(headerLen(h.Key))+int64(h.PayloadLen) != f.size,
			h.Kind != f.kind,
			entryFileName(h.Key) != filepath.Base(f.path):
			s.met.corruptTotal++
			frame.Quarantine(s.quarantineDir(), f.path)
			s.met.scanCorrupted++
			continue
		}
		s.clock++
		s.index[entryKey{kind: h.Kind, key: h.Key}] = &meta{path: f.path, size: f.size, access: s.clock}
		s.bytes += f.size
		s.met.scanned++
	}
	s.evictLocked()
	return nil
}

// readHeader reads at most maxHeaderLen bytes from path and parses them.
func readHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	buf := make([]byte, maxHeaderLen)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return Header{}, err
	}
	return DecodeHeader(buf[:n])
}

// ErrStale is the verdict a Load caller returns for a payload that is intact
// but written under a scheme it no longer accepts: a plain miss, with the
// entry left in place for the recomputed value to overwrite.
var ErrStale = errors.New("store: stale entry")

// Get returns the payload stored under (kind, key), or ok=false on a miss.
// A present-but-corrupt entry — bad header, wrong length, checksum mismatch
// — is quarantined and reported as a miss: the caller recomputes, the bad
// bytes never reach a decoder downstream, and the evidence is kept aside.
// Every well-framed entry counts as a hit; a caller that must also check the
// payload itself uses Load.
func (s *Store) Get(kind Kind, key string) ([]byte, bool) {
	var payload []byte
	ok := s.Load(kind, key, func(p []byte) error {
		payload = p
		return nil
	})
	return payload, ok
}

// Load reads the entry under (kind, key) as Get does and hands its payload
// to accept, which decodes and checks it; the outcome is booked from accept's
// verdict. nil is a hit. An error wrapping ErrStale is a miss. Any other
// error is damage the entry checksum cannot see (the payload fails its own
// decoder, or holds something other than what its key promises): the entry
// is quarantined and the read counts as a miss. accept runs without the
// store lock held.
func (s *Store) Load(kind Kind, key string, accept func(payload []byte) error) bool {
	ek := entryKey{kind: kind, key: key}
	payload, m := s.read(ek)
	if m == nil {
		return false
	}
	err := accept(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A Put while accept ran replaced the index record: the verdict is about
	// the old bytes, so it neither refreshes nor quarantines the new entry.
	current := s.index[ek] == m
	switch {
	case err == nil:
		if current {
			s.clock++
			m.access = s.clock
		}
		s.met.hits[kind]++
		return true
	case current && !errors.Is(err, ErrStale):
		s.quarantineLocked(ek, m)
	}
	s.met.misses[kind]++
	return false
}

// read returns the framed payload of an indexed entry and its index record.
// On a miss — absent, unreadable or corrupt, the last quarantined — it books
// the miss and returns a nil record.
func (s *Store) read(ek entryKey) ([]byte, *meta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.index[ek]
	if m == nil {
		s.met.misses[ek.kind]++
		return nil, nil
	}
	if err := faultinject.StoreRead.FireErr(); err != nil {
		s.met.misses[ek.kind]++
		return nil, nil
	}
	data, err := os.ReadFile(m.path)
	if err != nil {
		// The file is gone or unreadable (external deletion, IO error):
		// drop the index entry and miss.
		s.dropLocked(ek, m)
		s.met.misses[ek.kind]++
		return nil, nil
	}
	data = faultinject.StoreRead.CorruptBytes(data)
	h, payload, err := DecodeEntry(data)
	if err != nil || h.Kind != ek.kind || h.Key != ek.key {
		s.quarantineLocked(ek, m)
		s.met.misses[ek.kind]++
		return nil, nil
	}
	return payload, m
}

// Put stores payload under (kind, key), replacing any previous entry, and
// evicts oldest-access entries if the write pushed the store over budget.
// The write is atomic: concurrent readers and a crash at any point observe
// either the old complete entry or the new one.
func (s *Store) Put(kind Kind, key string, payload []byte) error {
	blob, err := EncodeEntry(kind, key, payload)
	if err != nil {
		return err
	}
	// Torn-write chaos: an armed KindCorrupt rule damages the entry before
	// the commit point, so a corrupt-but-complete file lands on disk — the
	// failure mode the read path's quarantine exists for.
	blob = faultinject.StoreWrite.CorruptBytes(blob)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := faultinject.StoreWrite.FireErr(); err != nil {
		s.met.writeErrors++
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	path := s.entryPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.met.writeErrors++
		return fmt.Errorf("store: %w", err)
	}
	if err := frame.WriteFileAtomic(path, blob, 0o644); err != nil {
		s.met.writeErrors++
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	ek := entryKey{kind: kind, key: key}
	if old := s.index[ek]; old != nil {
		s.bytes -= old.size
	}
	s.clock++
	s.index[ek] = &meta{path: path, size: int64(len(blob)), access: s.clock}
	s.bytes += int64(len(blob))
	s.met.writes++
	s.evictLocked()
	return nil
}

// Quarantine moves the entry aside and counts it corrupt — the hook for
// callers that detect payload-level damage the checksum cannot (an entry
// whose payload fails its own decoder). Unknown entries are a no-op.
func (s *Store) Quarantine(kind Kind, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ek := entryKey{kind: kind, key: key}
	if m := s.index[ek]; m != nil {
		s.quarantineLocked(ek, m)
	}
}

// GC evicts oldest-access entries until the store holds at most budget
// payload-file bytes (negative = the configured budget), and removes every
// quarantined file. Returns the number of entries evicted.
func (s *Store) GC(budget int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.met.evictions
	if budget < 0 {
		budget = s.budget
	}
	s.evictToLocked(budget)
	evicted := int(s.met.evictions - before)
	names, err := filepath.Glob(filepath.Join(s.quarantineDir(), "*"))
	if err != nil {
		return evicted, err
	}
	for _, name := range names {
		if err := os.Remove(name); err != nil {
			return evicted, err
		}
	}
	return evicted, nil
}

// EntryInfo describes one indexed entry, for listing and verification.
type EntryInfo struct {
	Kind Kind   `json:"kind"`
	Key  string `json:"key"`
	// Bytes is the whole entry file size (header + payload).
	Bytes int64 `json:"bytes"`
}

// Entries lists every indexed entry in deterministic (kind, key) order.
func (s *Store) Entries() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.index))
	for ek, m := range s.index {
		out = append(out, EntryInfo{Kind: ek.kind, Key: ek.key, Bytes: m.size})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the bytes currently retained on disk (indexed entries only;
// quarantined files are not counted).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Metrics returns a snapshot of the store counters.
func (s *Store) Metrics() MetricsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MetricsSnapshot{
		Entries:          len(s.index),
		Bytes:            s.bytes,
		BudgetBytes:      s.budget,
		ResultHits:       s.met.hits[KindResult],
		ResultMisses:     s.met.misses[KindResult],
		CheckpointHits:   s.met.hits[KindCheckpoint],
		CheckpointMisses: s.met.misses[KindCheckpoint],
		Writes:           s.met.writes,
		WriteErrors:      s.met.writeErrors,
		Evictions:        s.met.evictions,
		CorruptEntries:   s.met.corruptTotal,
		Scanned:          s.met.scanned,
		ScanCorrupted:    s.met.scanCorrupted,
	}
}

// entryFileName returns the fanout-safe filename for a key: keys are
// caller-chosen strings (Do keys can hold any bytes), so the filename is the
// SHA-256 of the key and the real key lives in the entry header.
func entryFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entryExt
}

func (s *Store) entryPath(kind Kind, key string) string {
	name := entryFileName(key)
	return filepath.Join(s.dir, kind.String(), name[:2], name)
}

func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// quarantineLocked quarantines an indexed entry and drops it from the index.
func (s *Store) quarantineLocked(ek entryKey, m *meta) {
	s.met.corruptTotal++
	frame.Quarantine(s.quarantineDir(), m.path)
	s.dropLocked(ek, m)
}

// dropLocked removes an entry from the index without touching its file.
func (s *Store) dropLocked(ek entryKey, m *meta) {
	delete(s.index, ek)
	s.bytes -= m.size
}

// evictLocked enforces the configured budget; see evictToLocked.
func (s *Store) evictLocked() {
	if s.budget < 0 {
		return
	}
	budget := s.budget
	if faultinject.StoreEvict.FireErr() != nil {
		// Injected fault: pretend the budget is zero for one pass, evicting
		// everything — callers must degrade to recompute, never crash.
		budget = 0
	}
	s.evictToLocked(budget)
}

// evictToLocked removes oldest-access entries until at most budget bytes
// remain. The victim scan is a minimum over unique access counters, so map
// iteration order cannot change which entry is chosen.
func (s *Store) evictToLocked(budget int64) {
	for s.bytes > budget && len(s.index) > 0 {
		var victim entryKey
		var vm *meta
		for ek, m := range s.index {
			if vm == nil || m.access < vm.access {
				victim, vm = ek, m
			}
		}
		os.Remove(vm.path)
		s.dropLocked(victim, vm)
		s.met.evictions++
	}
}
