package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/journal"
)

// specJSON marshals a normalized spec the way submitRecord does.
func specJSON(t *testing.T, spec RunSpec) (key string, raw []byte) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err = norm.Key()
	if err != nil {
		t.Fatal(err)
	}
	raw, err = json.Marshal(&norm)
	if err != nil {
		t.Fatal(err)
	}
	return key, raw
}

// blockWorker parks one worker on a non-journaled job until release closes.
func blockWorker(t *testing.T, svc *Service) (release chan struct{}) {
	t.Helper()
	block := make(chan struct{})
	release = make(chan struct{})
	_, err := svc.submit(nil, "blocker", func(ctx context.Context) (*ehs.Result, error) {
		close(block)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, errors.New("blocker done")
	}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-block
	return release
}

// openTestJournal opens a journal in a fresh temp dir and returns both; the
// journal is closed on cleanup (services never own it).
func openTestJournal(t *testing.T) (*journal.Journal, string) {
	t.Helper()
	dir := t.TempDir()
	jnl, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl, dir
}

// waitPendingLen polls until the journal's pending fold reaches want, or the
// deadline passes. Settle appends happen synchronously inside finishEntry, but
// the submit append runs outside s.mu — a tiny window tests must absorb.
func waitPendingLen(t *testing.T, jnl *journal.Journal, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := len(jnl.State().Pending); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal pending len = %d, want %d", len(jnl.State().Pending), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalSettlesCompletedJobs: a job that runs to completion leaves no
// pending intent — the submit record is retired by its settle.
func TestJournalSettlesCompletedJobs(t *testing.T) {
	jnl, _ := openTestJournal(t)
	svc := newTestService(t, Options{Workers: 2, Journal: jnl})

	job, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitPendingLen(t, jnl, 0)
	if m := svc.Metrics(); !m.JournalEnabled || m.Journal.Appends < 2 {
		t.Fatalf("journal metrics not booked: %+v", m.Journal)
	}
}

// TestJournalGracefulShutdownSettlesBeforeClose is the shutdown-ordering
// regression test: jobs that finish during a drain must have their settle
// records on disk before Close returns, so a graceful restart replays
// nothing.
func TestJournalGracefulShutdownSettlesBeforeClose(t *testing.T) {
	jnl, _ := openTestJournal(t)
	svc := New(Options{Workers: 2, Journal: jnl})

	var jobs []*Job
	for i := 0; i < 4; i++ {
		spec := quickSpec()
		spec.Seed = uint64(i + 1)
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()

	// Every settle must already be folded: the journal of a clean shutdown
	// replays nothing.
	if got := len(jnl.State().Pending); got != 0 {
		t.Fatalf("journal holds %d pending intents after graceful close, want 0", got)
	}
}

// TestJournalShutdownAbandonedJobStaysPending: a job cancelled by shutdown
// (not by its caller) keeps its intent — replaying it is the journal's
// purpose.
func TestJournalShutdownAbandonedJobStaysPending(t *testing.T) {
	jnl, _ := openTestJournal(t)
	svc := New(Options{Workers: 1, Journal: jnl})

	// Occupy the only worker so the journaled submit below stays queued. The
	// queued compute observes cancellation (a tiny real sim could outrun its
	// canceled context and legitimately settle), so shutdown always abandons
	// it — whether the drain fails it or a departing worker runs it.
	release := blockWorker(t, svc)

	key, raw := specJSON(t, quickSpec())
	_, err := svc.submit(nil, key, func(ctx context.Context) (*ehs.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, 0, 0, &journal.Record{Type: journal.TypeJobSubmit, Key: key, Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	waitPendingLen(t, jnl, 1)

	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	close(release)
	<-done

	// The queued job was abandoned by shutdown: its intent survives.
	if got := len(jnl.State().Pending); got != 1 {
		t.Fatalf("journal holds %d pending intents after abandoning shutdown, want 1", got)
	}
}

// TestJournalUserCancelSettles: an explicit Cancel is a resolved outcome —
// the intent must not survive to be resurrected by a restart.
func TestJournalUserCancelSettles(t *testing.T) {
	jnl, _ := openTestJournal(t)
	svc := newTestService(t, Options{Workers: 1, Journal: jnl})

	release := blockWorker(t, svc)
	defer close(release)

	job, err := svc.Submit(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitPendingLen(t, jnl, 1)
	if err := svc.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	waitPendingLen(t, jnl, 0)
}

// TestJournalIntentSurvivesCancelBeforeAppend: a submission registers its
// job and queues its computation before it appends the intent record, and
// a client can list the job (GET /v1/jobs) and cancel it (DELETE) in that
// gap. If a coalesced job still waits on the queued computation, the
// intent must stay pending after the append: settling it would lose the
// computation to a crash before it runs. It settles once the computation
// delivers.
func TestJournalIntentSurvivesCancelBeforeAppend(t *testing.T) {
	jnl, _ := openTestJournal(t)
	svc := newTestService(t, Options{Workers: 1, Journal: jnl})
	release := blockWorker(t, svc)

	key, raw := specJSON(t, quickSpec())
	compute := func(ctx context.Context) (*ehs.Result, error) {
		return &ehs.Result{Completed: true}, nil
	}
	// Submit's first half: the job is registered and queued, its intent not
	// yet appended.
	first, e, err := svc.submitLocked(nil, key, compute, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := svc.submit(nil, key, compute, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Cancel(first.ID()); err != nil {
		t.Fatal(err)
	}
	// Submit's second half.
	svc.journalIntent(e, journal.Record{Type: journal.TypeJobSubmit, Key: key, Spec: raw})
	if got := len(jnl.State().Pending); got != 1 {
		t.Fatalf("journal holds %d pending intents while the waiter's computation is queued, want 1", got)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := waiter.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	waitPendingLen(t, jnl, 0)
}

// TestJournalReplayResubmitsPendingJobs: a journal carrying unsettled
// intents replays them into a fresh service, which computes (or cache-hits)
// and settles them; afterwards the journal is clean and the replayed-jobs
// counter is booked.
func TestJournalReplayResubmitsPendingJobs(t *testing.T) {
	jnl, dir := openTestJournal(t)

	// Simulate a crashed predecessor: intents appended, never settled.
	spec := quickSpec()
	key, raw := specJSON(t, spec)
	if err := jnl.Append(journal.Record{Type: journal.TypeJobSubmit, Key: key, Spec: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	svc := newTestService(t, Options{Workers: 2, Journal: reopened})
	done := svc.StartJournalReplay()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not complete")
	}
	waitPendingLen(t, reopened, 0)
	if m := svc.Metrics(); m.JournalReplayedJobs != 1 {
		t.Fatalf("JournalReplayedJobs = %d, want 1", m.JournalReplayedJobs)
	}
	// The replayed result is now cached: a fresh submit of the same spec is
	// a cache hit, not a recomputation.
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplayGatesReadiness: while the replay pass runs, /readyz
// reports not ready with the "replaying journal" reason. A latency rule on
// journal.replay widens the window so the test can observe it.
func TestJournalReplayGatesReadiness(t *testing.T) {
	jnl, dir := openTestJournal(t)
	key, raw := specJSON(t, quickSpec())
	if err := jnl.Append(journal.Record{Type: journal.TypeJobSubmit, Key: key, Spec: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	armChaos(t, faultinject.Plan{Seed: 7, Rules: []faultinject.Rule{
		{Point: "journal.replay", Kind: faultinject.KindLatency, Every: 1, LatencyMicros: 200_000},
	}})

	reopened, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	svc := newTestService(t, Options{Workers: 2, Journal: reopened})
	done := svc.StartJournalReplay()
	if ok, reason := svc.Ready(); ok || reason != "replaying journal" {
		t.Fatalf("Ready() = %v, %q during replay; want false, replaying journal", ok, reason)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not complete")
	}
	if ok, reason := svc.Ready(); !ok {
		t.Fatalf("Ready() = false, %q after replay; want true", reason)
	}
}

// TestJournalReplaysForkSubmissions: a fork-submitted intent replays through
// the fork path, preserving the derived cache key.
func TestJournalReplaysForkSubmissions(t *testing.T) {
	jnl, dir := openTestJournal(t)
	svc := New(Options{Workers: 2, Journal: jnl})

	base := quickSpec()
	variant := base
	variant.Codec = "FPC"
	jobs, err := svc.SubmitBatchFork([]RunSpec{variant}, &ForkPoint{Cycles: 500, Base: &base})
	if err != nil {
		t.Fatal(err)
	}
	forkedKey := jobs[0].key
	if _, err := jobs[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash before the settle landed: re-append the fork submit
	// after the service closes cleanly, leaving an unsettled fork intent.
	svc.Close()
	_, raw := specJSON(t, variant)
	_, braw := specJSON(t, base)
	if err := jnl.Append(journal.Record{
		Type: journal.TypeJobSubmit, Key: forkedKey, Spec: raw, ForkCycles: 500, ForkBase: braw,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	if got := len(reopened.State().Pending); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	svc2 := newTestService(t, Options{Workers: 2, Journal: reopened})
	select {
	case <-svc2.StartJournalReplay():
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not complete")
	}
	waitPendingLen(t, reopened, 0)
	if m := svc2.Metrics(); m.JournalReplayedJobs != 1 {
		t.Fatalf("JournalReplayedJobs = %d, want 1", m.JournalReplayedJobs)
	}
}
