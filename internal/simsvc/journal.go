// Journal write-through and crash replay. With Options.Journal set, the
// service records *intent*: every cache entry that wins a queue slot appends
// a submit record, and resolving that entry appends the settle.
// The fold of those records — submits without settles — is exactly what a
// restarted process must re-submit, and the content-addressed cache plus the
// persistent store tier make that replay idempotent: a re-submitted job that
// already computed hits the store and settles without simulating.
//
// What settles and what does not, the replay invariant (DESIGN.md §14):
//
//   - success, and any failure while the service is serving, settle — the
//     caller observed a terminal outcome, the intent is spent (this includes
//     a Cancel of the last attached job: replaying work the user killed
//     would resurrect it);
//   - cancellation caused by shutdown does NOT settle — those jobs were
//     abandoned mid-promise, and replaying them after restart is the point
//     of the journal;
//   - the entry, not a job, carries the record: jobs attached to it ride
//     the one submit, and the settle is appended when the entry resolves —
//     when its computation returns, or at once when its last job is
//     canceled. A job canceled while others remain settles nothing.
package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"sort"

	"kagura/internal/faultinject"
	"kagura/internal/journal"
)

// submitRecord builds the intent record for a spec submission, or nil when
// journaling is off. Marshal failures disable journaling for this job only —
// the submission itself must not fail over a bookkeeping error.
func (s *Service) submitRecord(norm *RunSpec, key string) *journal.Record {
	if s.jnl == nil {
		return nil
	}
	raw, err := json.Marshal(norm)
	if err != nil {
		return nil
	}
	return &journal.Record{Type: journal.TypeJobSubmit, Key: key, Spec: raw}
}

// forkRecord is submitRecord for warm-start forks: replay must resubmit
// through the fork path so the derived cache key (and the warm snapshot
// reuse) match the original submission.
func (s *Service) forkRecord(norm *RunSpec, key string, base *RunSpec, cycles int64) *journal.Record {
	rec := s.submitRecord(norm, key)
	if rec == nil {
		return nil
	}
	braw, err := json.Marshal(base)
	if err != nil {
		return nil
	}
	rec.ForkCycles, rec.ForkBase = cycles, braw
	return rec
}

// journalIntent appends a submit record for an entry that just won a queue
// slot, outside s.mu (the append is file IO). The entry can resolve before
// the append lands — a fast worker, or a Cancel of its last job; in that
// case the settle is issued here, after the fact — the journal fold makes
// the late settle idempotent.
func (s *Service) journalIntent(e *entry, rec journal.Record) {
	if err := s.jnl.Append(rec); err != nil {
		s.logEvent("journal.append.failed", slog.String("key", rec.Key), slog.String("error", err.Error()))
		return
	}
	s.mu.Lock()
	e.journaled = true
	settle := e.resolved() && s.settlesLocked(e.err)
	s.mu.Unlock()
	if settle {
		s.journalSettle(rec.Key)
	}
}

// settlesLocked decides whether a terminal outcome retires the job's journal
// record. Callers hold s.mu.
func (s *Service) settlesLocked(err error) bool {
	if err == nil || !s.closed {
		return true
	}
	// Shutdown in progress: an abandonment error means the job never
	// resolved for its caller — keep the intent pending so restart replays
	// it. Deterministic failures settle even here (they would fail
	// identically on replay).
	return !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrClosed))
}

// journalSettle appends a settle record for key. Append errors are logged
// and absorbed: the cost of a lost settle is one redundant replay that
// immediately hits the cache.
func (s *Service) journalSettle(key string) {
	if s.jnl == nil || key == "" {
		return
	}
	if err := s.jnl.Append(journal.Record{Type: journal.TypeJobSettle, Key: key}); err != nil {
		s.logEvent("journal.settle.failed", slog.String("key", key), slog.String("error", err.Error()))
	}
}

// StartJournalReplay kicks off background replay of the journal's pending
// jobs and returns a channel closed when the pass completes. The service
// reports not-ready ("replaying journal" on /readyz) until then, so load
// balancers keep traffic away while the restart catches up on its promises.
// Safe to call with no journal (returns a closed channel) and idempotent per
// service lifetime.
func (s *Service) StartJournalReplay() <-chan struct{} {
	done := make(chan struct{})
	s.mu.Lock()
	if s.jnl == nil || s.closed || s.replaying {
		s.mu.Unlock()
		close(done)
		return done
	}
	s.replaying = true
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(done)
		n := s.replayJournal()
		s.mu.Lock()
		s.replaying = false
		s.mu.Unlock()
		s.logEvent("journal.replay.done", slog.Int("jobs", n))
	}()
	return done
}

// replayJournal re-submits every pending intent, in key order so two
// replays of the same journal submit identically. Each record passes the
// journal.replay fault point first. Submission errors are absorbed record by
// record — an undecodable or now-invalid spec is dropped (version drift), a
// full queue ends the pass early (the records stay pending; on-demand
// traffic or the next restart picks them up). Returns the number of jobs
// actually re-submitted.
func (s *Service) replayJournal() int {
	st := s.jnl.State()
	keys := make([]string, 0, len(st.Pending))
	for k := range st.Pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	replayed := 0
	for _, k := range keys {
		if s.baseCtx.Err() != nil {
			return replayed
		}
		if err := faultinject.JournalReplay.Fire(s.baseCtx); err != nil {
			continue
		}
		rec := st.Pending[k]
		var spec RunSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			continue
		}
		var err error
		if rec.ForkCycles > 0 {
			var base RunSpec
			if uerr := json.Unmarshal(rec.ForkBase, &base); uerr != nil {
				continue
			}
			_, err = s.SubmitBatchFork([]RunSpec{spec}, &ForkPoint{Cycles: rec.ForkCycles, Base: &base})
		} else {
			_, err = s.Submit(spec)
		}
		if err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded) {
				return replayed
			}
			continue
		}
		replayed++
		s.mu.Lock()
		s.met.journalReplayed++
		s.mu.Unlock()
	}
	return replayed
}
