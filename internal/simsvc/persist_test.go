package simsvc

// Restart-survival tests: the headline invariant of the persistent tier.
// Fill the store through one service, close it (graceful shutdown flushes
// the async publish queue), start a fresh service over the same directory,
// and previously computed work must be served from disk — byte-identical to
// a cold recompute — without re-simulating. Then the same under chaos: a
// torn write mid-publish leaves the store readable with the damaged entry
// quarantined and counted.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"kagura/internal/ckpt"
	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/store"
)

func TestRestartSurvivalServesResultsFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec()

	svc1 := New(Options{Workers: 2, StoreDir: dir})
	if err := svc1.StoreErr(); err != nil {
		t.Fatal(err)
	}
	cold, err := svc1.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close() // flushes the async publish queue

	// The restarted service must never need its simulator for this spec: its
	// memory cache is empty, so the only non-compute path is the disk tier.
	svc2 := newTestService(t, Options{Workers: 2, StoreDir: dir})
	warm, err := svc2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wireResult(cold), wireResult(warm)) {
		t.Fatal("disk-served result differs from the original compute")
	}
	m := svc2.Metrics()
	if !m.StoreEnabled || m.Store.ResultHits != 1 {
		t.Fatalf("store metrics = %+v, want 1 result hit", m.Store)
	}

	// Byte-identical to recompute: a store-less service computing the same
	// spec from scratch produces exactly the same result.
	svc3 := newTestService(t, Options{Workers: 2})
	recomputed, err := svc3.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wireResult(warm), wireResult(recomputed)) {
		t.Fatal("disk-served result differs from a cold recompute")
	}
}

// wireResult strips serving provenance (cache flag) from a RunResult so two
// servings of the same simulation compare equal on simulation content.
func wireResult(r *RunResult) RunResult {
	out := *r
	out.Cached = false
	return out
}

// TestRestartServesFromDiskWithoutComputing proves the serving path: the
// restarted service's compute function is rigged to fail, so the only way
// the job can succeed is the disk tier.
func TestRestartServesFromDiskWithoutComputing(t *testing.T) {
	dir := t.TempDir()
	key := "do-key-persisted"
	want := &ehs.Result{Completed: true, Committed: 1234, Executed: 5678}

	svc1 := New(Options{Workers: 1, StoreDir: dir})
	res, _, err := svc1.Do(context.Background(), key, func(context.Context) (*ehs.Result, error) {
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("seed compute failed")
	}
	svc1.Close()

	svc2 := newTestService(t, Options{Workers: 1, StoreDir: dir})
	got, _, err := svc2.Do(context.Background(), key, func(context.Context) (*ehs.Result, error) {
		return nil, fmt.Errorf("compute must not run: the result is on disk")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("disk-served result = %+v, want %+v", got, want)
	}
}

func TestRestartSurvivalWarmStartCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := quickSpec()
	variant := quickSpec()
	variant.Scale = 0.005
	fork := &ForkPoint{Cycles: 500, Base: &base}

	svc1 := New(Options{Workers: 2, StoreDir: dir})
	jobs, err := svc1.SubmitBatchFork([]RunSpec{variant}, fork)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := jobs[0].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m := svc1.Metrics(); m.WarmStartMisses != 1 {
		t.Fatalf("WarmStartMisses = %d, want 1", m.WarmStartMisses)
	}
	svc1.Close()

	// The restarted service serves the same fork straight from the result
	// store; a NEW variant of the same fork point, though, must resolve the
	// base snapshot — and the in-memory warm cache is empty, so the only
	// non-recompute path is the persisted checkpoint.
	svc2 := newTestService(t, Options{Workers: 2, StoreDir: dir})
	jobs, err = svc2.SubmitBatchFork([]RunSpec{variant}, fork)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := jobs[0].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The fork result was persisted too: served from disk, byte-identical.
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("warm-started result differs across restart")
	}
	variant2 := quickSpec()
	variant2.Scale = 0.006
	jobs, err = svc2.SubmitBatchFork([]RunSpec{variant2}, fork)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobs[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := svc2.Metrics()
	if m.Store.CheckpointHits < 1 {
		t.Fatalf("store metrics = %+v, want ≥1 checkpoint hit", m.Store)
	}
	if m.DegradedRuns != 0 {
		t.Fatalf("DegradedRuns = %d, want 0", m.DegradedRuns)
	}
}

// A warm snapshot whose ConfigHash predates the current fingerprint scheme
// is stale, not corrupt: the fork recomputes the prefix, overwrites the
// entry, quarantines nothing, and serves what a cold store would.
func TestLegacyWarmSnapshotIsAMiss(t *testing.T) {
	base := quickSpec()
	variant := quickSpec()
	variant.Scale = 0.005
	fork := &ForkPoint{Cycles: 500, Base: &base}

	norm, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	baseKey, err := norm.key()
	if err != nil {
		t.Fatal(err)
	}
	baseCfg, err := norm.Config()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := computeWarmSnapshot(context.Background(), baseCfg, fork.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	// A fingerprint as builds before the version tag wrote it.
	snap.ConfigHash = "56aa515341c96602d523cf42eca90648b5970a513a29cfa742f498d09300473d"
	blob, err := ckpt.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := warmStoreKey(baseKey, fork.Cycles)
	if err := st.Put(store.KindCheckpoint, key, blob); err != nil {
		t.Fatal(err)
	}

	run := func(dir string) (*ehs.Result, MetricsSnapshot) {
		svc := New(Options{Workers: 2, StoreDir: dir})
		defer svc.Close()
		jobs, err := svc.SubmitBatchFork([]RunSpec{variant}, fork)
		if err != nil {
			t.Fatal(err)
		}
		res, err := jobs[0].Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, svc.Metrics()
	}
	got, m := run(dir)
	if m.Store.CorruptEntries != 0 || m.DegradedRuns != 0 || m.WarmStartMisses != 1 {
		t.Fatalf("corrupt entries %d, degraded runs %d, warm misses %d; want 0, 0, 1",
			m.Store.CorruptEntries, m.DegradedRuns, m.WarmStartMisses)
	}
	if m.Store.CheckpointHits != 0 || m.Store.CheckpointMisses != 1 {
		t.Fatalf("store checkpoint hits %d, misses %d; want 0, 1",
			m.Store.CheckpointHits, m.Store.CheckpointMisses)
	}
	cold, _ := run(t.TempDir())
	if !reflect.DeepEqual(got, cold) {
		t.Fatal("fork over a legacy snapshot differs from a cold-store fork")
	}

	st, err = store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Metrics().ScanCorrupted; n != 0 {
		t.Fatalf("%d entries quarantined at rescan", n)
	}
	rewritten, ok := st.Get(store.KindCheckpoint, key)
	if !ok {
		t.Fatal("warm snapshot entry is gone")
	}
	back, err := ckpt.Decode(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigHash != baseCfg.Fingerprint() {
		t.Fatalf("entry still holds ConfigHash %s, want the recomputed %s", back.ConfigHash, baseCfg.Fingerprint())
	}
}

// A stored result whose payload passes the entry checksum but fails its own
// decoder is quarantined and booked as a store miss, never as a hit, and the
// spec recomputes.
func TestUndecodableStoredResultIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := "undecodable-result-key"
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.KindResult, key, []byte("not a result")); err != nil {
		t.Fatal(err)
	}

	svc := newTestService(t, Options{Workers: 1, StoreDir: dir})
	want := &ehs.Result{Completed: true, Committed: 7}
	got, _, err := svc.Do(context.Background(), key, func(context.Context) (*ehs.Result, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result = %+v, want the recomputed %+v", got, want)
	}
	m := svc.Metrics().Store
	if m.ResultHits != 0 || m.ResultMisses != 1 || m.CorruptEntries != 1 {
		t.Fatalf("store result hits %d, misses %d, corrupt %d; want 0, 1, 1",
			m.ResultHits, m.ResultMisses, m.CorruptEntries)
	}
}

// TestTornWritePublishQuarantinedAfterRestart injects the torn-write chaos
// shape: the entry bytes are corrupted before the atomic rename commits, so
// a complete-but-damaged file lands on disk. The restarted service must stay
// healthy — the entry is quarantined, kagura_store_corrupt_entries_total
// increments, and the spec simply recomputes.
func TestTornWritePublishQuarantinedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	key := "torn-publish-key"
	want := &ehs.Result{Completed: true, Committed: 42}
	compute := func(context.Context) (*ehs.Result, error) { return want, nil }

	armChaos(t, faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		{Point: "store.write", Kind: faultinject.KindCorrupt, Every: 1, Limit: 1},
	}})
	svc1 := New(Options{Workers: 1, StoreDir: dir})
	if _, _, err := svc1.Do(context.Background(), key, compute); err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	faultinject.Disable()

	// The scan indexes the entry (its header may still parse); the read is
	// what must detect the damage. Either way: quarantined, counted, miss.
	svc2 := newTestService(t, Options{Workers: 1, StoreDir: dir})
	got, _, err := svc2.Do(context.Background(), key, compute)
	if err != nil {
		t.Fatalf("service did not degrade to recompute: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recomputed result = %+v, want %+v", got, want)
	}
	if m := svc2.Metrics(); m.Store.CorruptEntries < 1 {
		t.Fatalf("store metrics = %+v, want ≥1 corrupt entry", m.Store)
	}
	// The exposition carries the corruption counter.
	if got := svc2.Metrics().Prometheus(); !containsLine(got, "kagura_store_corrupt_entries_total 1") {
		t.Fatal("kagura_store_corrupt_entries_total not incremented in exposition")
	}
}

// TestCleanWriteFailureLeavesStoreConsistent injects an error inside
// frame.WriteFileAtomic (the "ckpt.write" point fires before the rename): the
// publish fails cleanly, no entry lands, and the store stays consistent.
func TestCleanWriteFailureLeavesStoreConsistent(t *testing.T) {
	dir := t.TempDir()
	key := "failed-publish-key"
	compute := func(context.Context) (*ehs.Result, error) {
		return &ehs.Result{Completed: true}, nil
	}

	armChaos(t, faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Point: "ckpt.write", Kind: faultinject.KindError, Every: 1, Limit: 1},
	}})
	svc1 := New(Options{Workers: 1, StoreDir: dir})
	if _, _, err := svc1.Do(context.Background(), key, compute); err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	faultinject.Disable()

	svc2 := newTestService(t, Options{Workers: 1, StoreDir: dir})
	m := svc2.Metrics()
	if m.Store.Scanned != 0 || m.Store.ScanCorrupted != 0 {
		t.Fatalf("scan metrics = %+v, want an empty, clean store", m.Store)
	}
	if _, _, err := svc2.Do(context.Background(), key, compute); err != nil {
		t.Fatalf("recompute after failed publish: %v", err)
	}
}

func TestStoreOpenFailureDegradesToMemoryOnly(t *testing.T) {
	armChaos(t, faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Point: "store.open", Kind: faultinject.KindError, Every: 1, Limit: 1},
	}})
	svc := newTestService(t, Options{Workers: 1, StoreDir: t.TempDir()})
	if svc.StoreErr() == nil {
		t.Fatal("StoreErr = nil, want the injected open failure")
	}
	// Memory-only service still works.
	res, _, err := svc.Do(context.Background(), "memory-only", func(context.Context) (*ehs.Result, error) {
		return &ehs.Result{Completed: true}, nil
	})
	if err != nil || !res.Completed {
		t.Fatalf("memory-only service broken: %v", err)
	}
	if m := svc.Metrics(); m.StoreEnabled {
		t.Fatal("StoreEnabled = true despite failed open")
	}
}

// containsLine reports whether exposition contains the exact line.
func containsLine(exposition, line string) bool {
	for len(exposition) > 0 {
		i := 0
		for i < len(exposition) && exposition[i] != '\n' {
			i++
		}
		if exposition[:i] == line {
			return true
		}
		if i == len(exposition) {
			break
		}
		exposition = exposition[i+1:]
	}
	return false
}
