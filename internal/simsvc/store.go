package simsvc

// The persistent tier (internal/store) behind Options.StoreDir. The memory
// cache stays the first tier; misses there fall through to disk before paying
// for a simulation, and successful computes write through asynchronously:
// the hot path only enqueues an encode-and-Put onto a bounded channel
// drained by one background pump goroutine, so disk latency never extends
// the service mutex or a worker's critical path. When the channel is full
// the publish is dropped and counted (kagura_store_publish_drops_total) —
// the result is still served and memory-cached; only its persistence is
// best-effort. Close drains the channel, so a graceful shutdown persists
// everything it accepted — the restart-survival contract.

import (
	"fmt"

	"kagura/internal/ckpt"
	"kagura/internal/ehs"
	"kagura/internal/store"
)

// storePublishDepth bounds the queue of pending asynchronous store writes.
// When it is full, publishes are dropped and counted
// (kagura_store_publish_drops_total) rather than backpressuring the serving
// path: persistence is best-effort, serving is not.
const storePublishDepth = 256

// storeWrite is one queued asynchronous publish. encode runs on the pump
// goroutine, off every hot path.
type storeWrite struct {
	kind   store.Kind
	key    string
	encode func() ([]byte, error)
}

// openStore wires the persistent tier during New. A store that fails to
// open is recorded, logged, and left disabled — the service still serves
// from memory (kagura-serve chooses to treat this as fatal instead).
func (s *Service) openStore() {
	if s.opts.StoreDir == "" {
		return
	}
	st, err := store.Open(store.Options{Dir: s.opts.StoreDir, BudgetBytes: s.opts.StoreBudgetBytes})
	if err != nil {
		s.storeErr = err
		s.logEvent("store.open.failed", "error", err.Error())
		return
	}
	s.store = st
	s.storeQ = make(chan storeWrite, storePublishDepth)
	s.storeWG.Add(1)
	go s.storePump()
}

// StoreErr returns the error that disabled the persistent store at startup,
// or nil when the store is healthy or not configured.
func (s *Service) StoreErr() error { return s.storeErr }

// StoreMetrics returns the persistent tier's counters and whether the tier
// is enabled.
func (s *Service) StoreMetrics() (store.MetricsSnapshot, bool) {
	if s.store == nil {
		return store.MetricsSnapshot{}, false
	}
	return s.store.Metrics(), true
}

// storePump drains the publish queue: encode, then Put. Runs until Close
// closes the channel; write failures are already counted by the store.
func (s *Service) storePump() {
	defer s.storeWG.Done()
	for w := range s.storeQ {
		blob, err := w.encode()
		if err != nil {
			continue
		}
		if err := s.store.Put(w.kind, w.key, blob); err != nil {
			s.logEvent("store.put.failed", "kind", w.kind.String(), "error", err.Error())
		}
	}
}

// publishStoreLocked enqueues an asynchronous write-through, dropping (and
// counting) it when the pump is backlogged. Callers hold s.mu — the
// select-with-default never blocks.
func (s *Service) publishStoreLocked(kind store.Kind, key string, encode func() ([]byte, error)) {
	if s.storeQ == nil {
		return
	}
	select {
	case s.storeQ <- storeWrite{kind: kind, key: key, encode: encode}:
	default:
		s.met.storePublishDrops++
	}
}

// storeGetResult serves a result-cache miss from disk. A payload that fails
// its decoder slipped past the entry checksum (it was corrupted before the
// checksum was computed — the torn-write chaos shape): the store quarantines
// it and the read misses, never surfacing the error.
func (s *Service) storeGetResult(key string) (*ehs.Result, bool) {
	if s.store == nil {
		return nil, false
	}
	var res *ehs.Result
	ok := s.store.Load(store.KindResult, key, func(blob []byte) (err error) {
		res, err = ckpt.DecodeResult(blob)
		return err
	})
	return res, ok
}

// warmStoreKey is the key of a warm-start snapshot, in memory and on disk:
// the base spec's content key plus the fork cycle.
func warmStoreKey(baseKey string, cycles int64) string {
	return fmt.Sprintf("warm|%s|%d", baseKey, cycles)
}

// storeGetSnapshot serves a warm-start miss from disk. The decoded
// snapshot's config fingerprint must match the base config — a mismatch
// means the entry does not hold what its key promises, so the store
// quarantines it like any other corruption. A fingerprint in a legacy scheme
// is stale, not corrupt: it is a plain miss, and the recomputed snapshot
// overwrites it.
func (s *Service) storeGetSnapshot(baseCfg ehs.Config, baseKey string, cycles int64) (*ehs.Snapshot, []byte, bool) {
	if s.store == nil {
		return nil, nil, false
	}
	var snap *ehs.Snapshot
	var blob []byte
	ok := s.store.Load(store.KindCheckpoint, warmStoreKey(baseKey, cycles), func(p []byte) error {
		got, err := ckpt.Decode(p)
		switch {
		case err != nil:
			return err
		case ehs.IsLegacyFingerprint(got.ConfigHash):
			return store.ErrStale
		case got.ConfigHash != baseCfg.Fingerprint():
			return fmt.Errorf("simsvc: warm snapshot fingerprint %s, want %s", got.ConfigHash, baseCfg.Fingerprint())
		}
		snap, blob = got, p
		return nil
	})
	return snap, blob, ok
}
