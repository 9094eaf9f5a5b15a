package simsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"kagura/internal/ckpt"
	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/obs"
	"kagura/internal/store"
)

// ForkPoint asks a batch to warm-start: run the base spec once to the given
// cycle, snapshot it, and fork every job in the batch from that snapshot
// instead of simulating its prefix from cold. Sweeps share almost all of
// their prefix work (a sweep varies one parameter against a common base), so
// the service computes each (base, cycle) snapshot exactly once and reuses
// it across the batch — and across later batches, via a bounded cache.
type ForkPoint struct {
	// Cycles is the simulation cycle to snapshot the base run at.
	Cycles int64 `json:"cycles"`
	// Base is the spec whose prefix seeds the batch; nil means the batch's
	// first job.
	Base *RunSpec `json:"base,omitempty"`
}

// SubmitBatchFork schedules a batch like SubmitBatch, but when fork is
// non-nil every job warm-starts from the base spec's state at fork.Cycles.
//
// A job whose spec equals the base resumes exactly — snapshot/resume is
// byte-identical to a cold run, so it shares the cold result-cache key. Any
// other job is a fork onto a variant config: an approximation (its prefix
// was simulated under the base config), so its result is cached under a
// derived key that can never collide with the cold key of the same spec.
func (s *Service) SubmitBatchFork(specs []RunSpec, fork *ForkPoint) ([]*Job, error) {
	if fork == nil || fork.Cycles == 0 {
		return s.SubmitBatch(specs)
	}
	if fork.Cycles < 0 {
		return nil, s.badSpec(fmt.Errorf("simsvc: negative forkPoint cycles %d", fork.Cycles))
	}
	if len(specs) == 0 {
		return nil, s.badSpec(fmt.Errorf("simsvc: forked batch needs at least one job"))
	}
	baseSpec := specs[0]
	if fork.Base != nil {
		baseSpec = *fork.Base
	}
	base, baseKey, _, err := s.resolve(baseSpec)
	if err != nil {
		return nil, fmt.Errorf("simsvc: forkPoint base: %w", err)
	}

	jobs := make([]*Job, 0, len(specs))
	for i, spec := range specs {
		job, err := s.submitFork(spec, base, baseKey, fork.Cycles)
		if err != nil {
			return jobs, fmt.Errorf("simsvc: batch[%d]: %w", i, err)
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// submitFork schedules one warm-started run.
func (s *Service) submitFork(spec RunSpec, base RunSpec, baseKey string, cycles int64) (*Job, error) {
	norm, coldKey, timeout, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}
	key := coldKey
	if coldKey != baseKey {
		key = forkKey(baseKey, cycles, coldKey)
	}
	compute := func(ctx context.Context) (*ehs.Result, error) {
		cfg, err := norm.Config()
		if err != nil {
			return nil, err
		}
		// The job's trace rides the context (obs.WithTrace in runEntry): split
		// the compute span into a warm-start span — computing or waiting
		// for the snapshot — and the simulation proper.
		tr := obs.TraceFrom(ctx)
		tr.Begin(obs.PhaseWarmStart, time.Now())
		snap, err := s.warmSnapshot(ctx, base, baseKey, cycles)
		if err == nil {
			err = faultinject.SimsvcWarmStartFork.Fire(ctx)
		}
		tr.Begin(obs.PhaseCompute, time.Now())
		if err == nil {
			res, rerr := ehs.RunFrom(ctx, snap, cfg)
			if rerr == nil {
				return res, nil
			}
			err = rerr
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// The warm start failed for a reason other than cancellation — a
		// corrupt or structurally incompatible snapshot, a failed snapshot computation, an
		// injected fault. The fork was only ever an optimization: degrade to
		// a cold run of the same config so the job still succeeds, and count
		// the downgrade (kagura_degraded_runs).
		s.noteDegraded()
		return ehs.RunContext(ctx, cfg)
	}
	return s.submit(&norm, key, compute, timeout, cycles, s.forkRecord(&norm, key, &base, cycles))
}

// noteDegraded counts one warm start abandoned for a cold run.
func (s *Service) noteDegraded() {
	s.mu.Lock()
	s.met.degradedRuns++
	s.mu.Unlock()
}

// forkKey derives the result-cache key for a warm-started variant run. The
// base key and fork cycle are part of the identity: the same spec forked
// from a different prefix is a different (approximate) result.
func forkKey(baseKey string, cycles int64, coldKey string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("warmstart|%s|%d|%s", baseKey, cycles, coldKey)))
	return hex.EncodeToString(h[:])
}

// warmSnapshot returns the base spec's snapshot at the fork cycle,
// computing it at most once per key while concurrent forks wait on the
// in-flight cache entry (singleflight). A failed computation deletes the
// entry as it resolves; a waiter that observes the failure retries as the
// entry's new creator under its own context, so one canceled job cannot
// poison the batch. A hit is booked only when the snapshot is delivered.
func (s *Service) warmSnapshot(ctx context.Context, base RunSpec, baseKey string, cycles int64) (*ehs.Snapshot, error) {
	k := cacheKey{kind: store.KindCheckpoint, key: warmStoreKey(baseKey, cycles)}
	for {
		s.mu.Lock()
		if e, ok := s.cache[k]; ok {
			if !e.ready {
				s.mu.Unlock()
				select {
				case <-e.done:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				s.mu.Lock()
				if !e.ready {
					// The computation failed and removed the entry; try
					// to take over. Progress is guaranteed: every iteration either
					// finds a live entry or installs one.
					s.mu.Unlock()
					continue
				}
			} else {
				s.lru.MoveToFront(e.elem)
			}
			s.met.warmHits++
			s.met.warmCyclesSaved += cycles
			s.mu.Unlock()
			return e.snap, nil
		}
		e := &entry{done: make(chan struct{})}
		s.cache[k] = e
		s.met.warmMisses++
		s.mu.Unlock()

		// Only the fork that created the entry builds the base config;
		// hits and waiters above never do.
		snap, blob, fromStore, err := s.loadWarmSnapshot(ctx, base, baseKey, cycles)
		s.mu.Lock()
		// Book the snapshot's encoded size — the exact wire size a
		// checkpoint of this state has — and write a fresh blob through to
		// the persistent tier.
		var encode func() ([]byte, error)
		if err == nil {
			e.snap = snap
			if blob != nil {
				s.met.snapshotBytesHist.Observe(float64(len(blob)))
				if !fromStore {
					encode = func() ([]byte, error) { return blob, nil }
				}
			}
		}
		s.resolveLocked(k, e, err, len(blob), encode)
		s.mu.Unlock()
		return snap, err
	}
}

// loadWarmSnapshot produces a missed snapshot and its encoded bytes: from the
// persistent tier when a previous run (or process) already paid for this
// prefix, else by simulating it. Encoding once per miss is noise next to the
// simulation that just produced the snapshot; a snapshot that fails to
// encode (nil blob) still serves from memory, unsized and unpersisted.
func (s *Service) loadWarmSnapshot(ctx context.Context, base RunSpec, baseKey string, cycles int64) (snap *ehs.Snapshot, blob []byte, fromStore bool, err error) {
	baseCfg, err := base.Config()
	if err != nil {
		return nil, nil, false, err
	}
	if snap, blob, ok := s.storeGetSnapshot(baseCfg, baseKey, cycles); ok {
		return snap, blob, true, nil
	}
	if snap, err = computeWarmSnapshot(ctx, baseCfg, cycles); err != nil {
		return nil, nil, false, err
	}
	blob, _ = ckpt.Encode(snap)
	return snap, blob, false, nil
}

// computeWarmSnapshot runs the base config to the fork cycle and snapshots.
func computeWarmSnapshot(ctx context.Context, baseCfg ehs.Config, cycles int64) (*ehs.Snapshot, error) {
	if err := faultinject.SimsvcWarmStartSnapshot.Fire(ctx); err != nil {
		return nil, err
	}
	sim, err := ehs.New(baseCfg)
	if err != nil {
		return nil, err
	}
	if _, err := sim.RunToCycle(ctx, cycles); err != nil {
		return nil, err
	}
	return sim.Snapshot()
}
