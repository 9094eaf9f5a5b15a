package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"kagura/internal/ehs"
	"kagura/internal/faultinject"
	"kagura/internal/journal"
	"kagura/internal/simsvc"
)

// Runner executes campaigns against a simulation service. Met may be nil
// (every Metrics method is nil-safe); Progress, when set, receives one call
// per dispatched point as its job enters the service — the live-status hook
// the Manager and CLI use.
type Runner struct {
	Svc *simsvc.Service
	Met *Metrics
	// Progress observes each dispatched point: the wave (1-based), the point
	// index, and the simsvc job ID whose per-phase obs trace tracks it
	// (GET /v1/jobs/{id}).
	Progress func(round, index int, jobID string)

	// Jnl, when set, makes the run crash-tolerant: a start record before the
	// first wave, a wave checkpoint (points + strategy snapshot) after each
	// completed wave, a done record on success or when a point's compute
	// panicked. CampaignID names the records; it must be set whenever Jnl is.
	Jnl        *journal.Journal
	CampaignID string
	// Resume replays a journaled campaign instead of starting fresh: the
	// checkpointed waves are re-dispatched (the content-addressed cache and
	// store tier turn them into fetches), the strategy is restored from the
	// last checkpoint, and the walk continues — producing a report
	// byte-identical to an uninterrupted run (DESIGN.md §14).
	Resume *journal.CampaignIntent
}

// SpecHash returns the SHA-256 hex of a spec's canonical JSON encoding — the
// identity the journal records at campaign start and resume verifies.
func SpecHash(spec *Spec) (string, []byte, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", nil, fmt.Errorf("campaign: hash spec: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), raw, nil
}

// sha256Hex hashes raw bytes the way SpecHash hashes a spec.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultSet accumulates per-point results, indexed by point. Evaluation
// order never matters: best scans ascending indices with strict-improvement
// comparisons, so the set's answers depend only on which points are filled.
type resultSet struct {
	res []*ehs.Result
}

func newResultSet(total int) *resultSet { return &resultSet{res: make([]*ehs.Result, total)} }

// value evaluates the objective metric on one result.
func (o Objective) value(r *ehs.Result) float64 {
	switch o.Metric {
	case MetricProgress:
		if r.ExecSeconds > 0 {
			return float64(r.Committed) / r.ExecSeconds
		}
		return 0
	case MetricExecSeconds:
		return r.ExecSeconds
	default:
		return r.Energy.Total()
	}
}

// better reports whether candidate strictly improves on incumbent — ties
// keep the incumbent, so ascending-index scans are deterministic without
// float equality.
func (o Objective) better(candidate, incumbent float64) bool {
	if o.Goal == GoalMax {
		return candidate > incumbent
	}
	return candidate < incumbent
}

// best returns the evaluated point index that optimizes the objective,
// scanning ascending so equal values resolve to the lowest index.
func (rs *resultSet) best(obj Objective) (int, bool) {
	bestIdx := -1
	var bestVal float64
	for i, r := range rs.res {
		if r == nil {
			continue
		}
		v := obj.value(r)
		if bestIdx < 0 || obj.better(v, bestVal) {
			bestIdx, bestVal = i, v
		}
	}
	return bestIdx, bestIdx >= 0
}

// Run executes the campaign to completion and builds its report. The report
// is a pure function of (spec, results): same spec + seed ⇒ byte-identical
// report regardless of the service's worker count, because every scheduling
// decision is strategy-driven and every result lands in its indexed slot.
func (r *Runner) Run(ctx context.Context, spec *Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		r.Met.campaignFailed()
		return nil, err
	}
	r.Met.campaignStarted()
	rep, err := r.run(ctx, spec)
	if err != nil {
		if simsvc.Classify(err) == simsvc.CodePanic {
			// A point whose compute panicked would panic again on every
			// resume: retire the campaign instead of relaunching it at each
			// restart. Dispatch faults, backpressure, cancellation and
			// shutdown leave it resumable.
			r.journalDone()
		}
		r.Met.campaignFailed()
		return nil, err
	}
	r.Met.campaignCompleted()
	return rep, nil
}

func (r *Runner) run(ctx context.Context, spec *Spec) (*Report, error) {
	space := newSpace(spec)
	total := space.total()
	results := newResultSet(total)
	rounds := make([]int, total) // wave number per evaluated point, 1-based

	if r.Resume == nil {
		// Journal the campaign's identity before any work (including the
		// baseline), so a crash at any later instant leaves a resumable record.
		r.journalStart(spec)
	}

	var baseline *ehs.Result
	if spec.Baseline != nil {
		// The baseline is not a sweep point; Progress sees it as round 0,
		// index -1. On resume it re-runs through the same path — the result
		// cache and store tier turn it into a fetch.
		res, err := r.runPoints(ctx, 0, []int{-1}, []simsvc.RunSpec{*spec.Baseline}, nil)
		if err != nil {
			return nil, fmt.Errorf("campaign: baseline: %w", err)
		}
		baseline = res[0]
	}

	strat := newStrategy(spec, space)
	submitted, round := 0, 0
	if r.Resume != nil {
		var err error
		submitted, round, err = r.fastForward(ctx, spec, space, strat, results, rounds)
		if err != nil {
			return nil, err
		}
	}
	for {
		wave := strat.next(results)
		if len(wave) == 0 {
			break
		}
		round++
		if err := r.runWave(ctx, spec, space, round, wave, results, rounds); err != nil {
			return nil, err
		}
		submitted += len(wave)
		r.Met.pointsSubmitted(len(wave))
		r.Met.roundFinished()
		r.journalWave(round, wave, strat)
	}

	r.journalDone()
	return buildReport(spec, space, results, rounds, baseline, submitted, round), nil
}

// runWave dispatches one wave in BatchSize chunks and lands every result in
// its indexed slot. Shared by the live walk and the resume fast-forward so
// Progress callbacks, backpressure, and result placement behave identically on
// both paths.
func (r *Runner) runWave(ctx context.Context, spec *Spec, space *space, round int, wave []int, results *resultSet, rounds []int) error {
	specs := make([]simsvc.RunSpec, len(wave))
	for i, idx := range wave {
		sp, err := space.runSpec(idx)
		if err != nil {
			return err
		}
		specs[i] = sp
	}
	for off := 0; off < len(wave); off += spec.BatchSize {
		end := off + spec.BatchSize
		if end > len(wave) {
			end = len(wave)
		}
		res, err := r.runPoints(ctx, round, wave[off:end], specs[off:end], spec.ForkPoint)
		if err != nil {
			return err
		}
		for i, idx := range wave[off:end] {
			results.res[idx] = res[i]
			rounds[idx] = round
		}
	}
	return nil
}

// fastForward replays the journal's wave checkpoints: each checkpointed wave
// is re-dispatched through the normal path (the cache and store tier make
// the re-dispatch a fetch, not a recomputation), and the strategy is
// restored from the last checkpoint so its next wave continues the original
// walk. Only the longest valid prefix of checkpoints is trusted — a torn or
// out-of-range tail degrades to recomputing from the last good wave.
func (r *Runner) fastForward(ctx context.Context, spec *Spec, space *space, strat strategy, results *resultSet, rounds []int) (submitted, round int, err error) {
	waves := validWaves(r.Resume.Waves, space.total())
	for _, w := range waves {
		if err := r.runWave(ctx, spec, space, w.Wave, w.Points, results, rounds); err != nil {
			return 0, 0, fmt.Errorf("campaign: resume wave %d: %w", w.Wave, err)
		}
		submitted += len(w.Points)
		round = w.Wave
		r.Met.pointsSubmitted(len(w.Points))
		r.Met.roundFinished()
	}
	if len(waves) > 0 {
		if rerr := strat.restore(waves[len(waves)-1].Strategy); rerr != nil {
			return 0, 0, rerr
		}
	}
	return submitted, round, nil
}

// validWaves returns the longest checkpoint prefix safe to trust: wave
// numbers 1..k consecutive, every point inside the space, every snapshot
// present. Anything after the first hole is discarded — those waves will be
// recomputed by the live walk.
func validWaves(waves []journal.WaveCheckpoint, total int) []journal.WaveCheckpoint {
	byNum := make(map[int]journal.WaveCheckpoint, len(waves))
	for _, w := range waves {
		byNum[w.Wave] = w
	}
	var out []journal.WaveCheckpoint
	for n := 1; ; n++ {
		w, ok := byNum[n]
		if !ok || len(w.Strategy) == 0 {
			return out
		}
		for _, p := range w.Points {
			if p < 0 || p >= total {
				return out
			}
		}
		out = append(out, w)
	}
}

// journalStart records the campaign's identity before its first wave. Append
// failures are absorbed: the journal already counts them, and a campaign
// that loses its start record simply isn't resumable — it still runs.
func (r *Runner) journalStart(spec *Spec) {
	if r.Jnl == nil {
		return
	}
	hash, raw, err := SpecHash(spec)
	if err != nil {
		return
	}
	_ = r.Jnl.Append(journal.Record{
		Type:         journal.TypeCampaignStart,
		Campaign:     r.CampaignID,
		SpecHash:     hash,
		CampaignSpec: raw,
	})
}

// journalWave checkpoints one completed wave: its points and the strategy
// snapshot taken after the wave was generated, so restoring it yields the
// next wave.
func (r *Runner) journalWave(round int, wave []int, strat strategy) {
	if r.Jnl == nil {
		return
	}
	_ = r.Jnl.Append(journal.Record{
		Type:     journal.TypeCampaignWave,
		Campaign: r.CampaignID,
		Wave:     round,
		Points:   append([]int(nil), wave...),
		Strategy: strat.snapshot(),
	})
}

// journalDone retires the campaign's journal records: nothing is left to
// resume.
func (r *Runner) journalDone() {
	if r.Jnl == nil {
		return
	}
	_ = r.Jnl.Append(journal.Record{Type: journal.TypeCampaignDone, Campaign: r.CampaignID})
}

// runPoints dispatches one chunk of specs as a fork-batch and waits for every
// job in index order. The one backpressure rule: when the service refuses a
// spec for lack of queue room (queue_full, overloaded), the jobs already
// scheduled stay, the runner waits for the oldest of them to settle, and it
// submits the rest of the chunk. A refusal while none of the chunk's jobs is
// in flight is load from other clients, and fails the campaign. Every other
// failure, a recovered panic or an injected fault included, fails the point
// at once: the simulator is a pure function and would fail the same way
// again. The journal keeps a failed campaign resumable, unless the failure
// was a panic (see Run).
func (r *Runner) runPoints(ctx context.Context, round int, indices []int, specs []simsvc.RunSpec, fork *simsvc.ForkPoint) ([]*ehs.Result, error) {
	jobs := make([]*simsvc.Job, 0, len(specs))
	out := make([]*ehs.Result, len(specs))
	settled := 0 // jobs[:settled] have their results in out
	wait := func() error {
		res, err := jobs[settled].Wait(ctx)
		if err != nil {
			return fmt.Errorf("campaign: point %d: %w", indices[settled], err)
		}
		out[settled] = res
		settled++
		return nil
	}
	for len(jobs) < len(specs) {
		err := faultinject.CampaignDispatch.Fire(ctx)
		if err == nil {
			var more []*simsvc.Job
			more, err = r.Svc.SubmitBatchFork(specs[len(jobs):], fork)
			for _, job := range more {
				if r.Progress != nil {
					r.Progress(round, indices[len(jobs)], job.ID())
				}
				jobs = append(jobs, job)
			}
		}
		if err == nil {
			break
		}
		if code := simsvc.Classify(err); (code != simsvc.CodeQueueFull && code != simsvc.CodeOverloaded) || settled == len(jobs) {
			return nil, fmt.Errorf("campaign: dispatch: %w", err)
		}
		if err := wait(); err != nil {
			return nil, err
		}
	}
	for settled < len(jobs) {
		if err := wait(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
