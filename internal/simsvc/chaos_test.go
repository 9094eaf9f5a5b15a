package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"kagura/internal/faultinject"
	"kagura/internal/obs"
)

// chaosPlan is the soak's fault mix: compute errors and panics (exercising
// settle-at-once failure and the recover shield), compute latency (exercising coalescing
// under slow owners), cache-insert and coalesce faults, and the full
// warm-start gauntlet (owner failure, fork failure, premature eviction).
func chaosPlan(seed uint64) faultinject.Plan {
	return faultinject.Plan{Seed: seed, Rules: []faultinject.Rule{
		{Point: "simsvc.compute", Kind: faultinject.KindError, Probability: 0.15, Message: "chaos: transient compute"},
		// Nth, not a low-probability coin: every seed is guaranteed to crash
		// the third compute, so the soak always exercises the worker's
		// recover shield (a coin left it unexercised and masked an escape).
		{Point: "simsvc.compute", Kind: faultinject.KindPanic, Nth: 3, Message: "chaos: compute crash"},
		{Point: "simsvc.compute", Kind: faultinject.KindLatency, Probability: 0.10, LatencyMicros: 2_000},
		{Point: "simsvc.cache.insert", Kind: faultinject.KindError, Probability: 0.05, Message: "chaos: insert"},
		{Point: "simsvc.coalesce", Kind: faultinject.KindError, Probability: 0.05, Message: "chaos: coalesce"},
		{Point: "simsvc.warmstart.snapshot", Kind: faultinject.KindError, Probability: 0.25, Message: "chaos: owner"},
		{Point: "simsvc.warmstart.fork", Kind: faultinject.KindError, Probability: 0.25, Message: "chaos: fork"},
		{Point: "simsvc.warm.evict", Kind: faultinject.KindError, Probability: 0.5},
	}}
}

// submitChaos submits spec under an armed chaos plan. The plan's coalesce
// fault rejects a submission that coalesces onto an in-flight twin; such a
// rejection is resubmitted, so every spec is still scheduled, and counted, so
// the caller can check every rejection against the fault's fire count. Any
// other rejection fails the test.
func submitChaos(t *testing.T, svc *Service, spec RunSpec) (*Job, int64) {
	t.Helper()
	var job *Job
	rejected := retryCoalesce(t, func() (err error) {
		job, err = svc.Submit(spec)
		return err
	})
	return job, rejected
}

// retryCoalesce calls submit until it is not rejected by the coalesce fault
// and returns the number of rejections. Any other error fails the test.
func retryCoalesce(t *testing.T, submit func() error) int64 {
	t.Helper()
	for rejected := int64(0); rejected < 100; rejected++ {
		err := submit()
		if err == nil {
			return rejected
		}
		var ie *faultinject.InjectedError
		if !errors.As(err, &ie) || ie.Point != "simsvc.coalesce" {
			t.Fatalf("submit: %v", err)
		}
	}
	t.Fatalf("submit: rejected by the coalesce fault 100 times in a row")
	return 0
}

// soakSpecs fans one seed out into n distinct job specs: app, policy and
// scale variants of the quick workloads. i is read in mixed radix — the app
// varies fastest, then the policy, then the scale — so no two specs share a
// key.
func soakSpecs(n int) []RunSpec {
	apps := []string{"jpeg", "gsm"}
	policies := []string{"AIMD", "MIAD", "AIAD", "MIMD"}
	specs := make([]RunSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, RunSpec{
			App:    apps[i%len(apps)],
			Scale:  0.002 + 0.001*float64(i/(len(apps)*len(policies))),
			Codec:  "BDI",
			ACC:    true,
			Kagura: true,
			Policy: policies[i/len(apps)%len(policies)],
		})
	}
	return specs
}

// TestSoakSpecsAreDistinct holds soakSpecs to its name: n specs, n keys.
func TestSoakSpecsAreDistinct(t *testing.T) {
	for _, n := range []int{10, 12, 40} {
		keys := make(map[string]bool, n)
		for _, spec := range soakSpecs(n) {
			key, err := spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			keys[key] = true
		}
		if len(keys) != n {
			t.Errorf("soakSpecs(%d) yields %d distinct keys", n, len(keys))
		}
	}
}

// TestChaosSoak is the seeded chaos harness: for each seed it arms a hostile
// fault plan, floods the service with plain and warm-started jobs, and
// requires that (a) every job settles before a global deadline — no deadlock,
// no lost jobs, no panic escaping a worker — and (b) results the chaotic run
// produced for plain jobs are byte-identical to a fault-free service's, i.e.
// injected faults may fail or delay jobs but can never corrupt a cached
// result. A failed compute settles its job at once — there are no retries —
// so under the plan many jobs fail; every failure must carry a taxonomy code,
// and the plan must provably have fired (a recovered panic and at least one
// fault_injected settle). Forked jobs may legitimately degrade to cold runs,
// so for them the soak asserts settlement and leaves identity to
// TestCorruptWarmSnapshotDegradesToCold.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	const plainJobs = 40 // distinct specs; submitted twice → coalescing under fire
	forkBatch := sweepSpecs()

	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faultinject.Disable()
			if err := faultinject.Enable(chaosPlan(seed)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(faultinject.Disable)

			svc := newTestService(t, Options{Workers: 8, QueueDepth: 4096})

			specs := soakSpecs(plainJobs)
			var jobs []*Job
			var rejected int64
			for round := 0; round < 2; round++ {
				for _, spec := range specs {
					job, n := submitChaos(t, svc, spec)
					jobs = append(jobs, job)
					rejected += n
				}
			}
			// The batch's base is also a plain soak spec, so it can coalesce
			// onto that spec's in-flight job and draw the coalesce fault. A
			// rejected element fails the call after the elements before it
			// were scheduled; the retry resubmits the batch, and every job
			// any attempt scheduled must still settle.
			var forked []*Job
			rejected += retryCoalesce(t, func() error {
				jobs, err := svc.SubmitBatchFork(forkBatch, &ForkPoint{Cycles: 20_000})
				forked = append(forked, jobs...)
				return err
			})
			if fires := faultinject.SimsvcCoalesce.Fires(); rejected != fires {
				t.Fatalf("%d submissions rejected by the coalesce fault, which fired %d times", rejected, fires)
			}

			// Scrape /metrics mid-soak, while jobs are racing through every
			// phase: the exposition must be well-formed at any instant, not
			// just at rest.
			if err := obs.ValidateExposition(svc.Metrics().Prometheus()); err != nil {
				t.Fatalf("mid-soak /metrics exposition malformed: %v", err)
			}

			// Global deadline: every job must settle. A deadlocked worker pool
			// or a lost job fails here.
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			chaotic := make(map[string]*Job, len(specs))
			for i, job := range jobs {
				res, err := job.Wait(ctx)
				if ctx.Err() != nil {
					t.Fatalf("job %d did not settle before the deadline (deadlock?)", i)
				}
				if err != nil {
					// A job may fail under a hostile plan; that is a settled
					// failure, not a soak violation — but it must carry a
					// taxonomy code.
					if code := Classify(err); code == "" || code == CodeInternal {
						t.Fatalf("job %d failed outside the taxonomy: %v", i, err)
					}
					continue
				}
				if res == nil {
					t.Fatalf("job %d settled successfully with a nil result", i)
				}
				chaotic[job.Key()] = job
			}
			for i, job := range forked {
				if _, err := job.Wait(ctx); ctx.Err() != nil {
					t.Fatalf("forked job %d did not settle before the deadline", i)
				} else if err != nil {
					if code := Classify(err); code == "" || code == CodeInternal {
						t.Fatalf("forked job %d failed outside the taxonomy: %v", i, err)
					}
				}
			}

			// Fault-free replay: every result the chaotic service produced must
			// be byte-identical to a clean run of the same spec.
			faultinject.Disable()
			clean := newTestService(t, Options{Workers: 8, QueueDepth: 4096})
			for _, spec := range specs {
				job, err := clean.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := job.Wait(ctx)
				if err != nil {
					t.Fatalf("fault-free run failed: %v", err)
				}
				cj, ok := chaotic[job.Key()]
				if !ok {
					continue // every chaotic job of this spec failed
				}
				got, _ := cj.Wait(ctx)
				gb, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wb, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if string(gb) != string(wb) {
					t.Fatalf("spec %+v: chaotic result diverged from fault-free result", spec)
				}
			}

			m := svc.Metrics()
			t.Logf("seed %d: run=%d cached=%d failed=%d panics=%d degraded=%d coalesce_rejected=%d identical=%d errors=%v",
				seed, m.JobsRun, m.JobsCached, m.JobsFailed,
				m.PanicsRecovered, m.DegradedRuns, rejected, len(chaotic), m.Errors)
			if len(chaotic) == 0 {
				t.Error("no plain job succeeded; the identity check compared nothing")
			}
			if m.Errors[string(CodeFaultInjected)] == 0 {
				t.Error("no job settled as fault_injected; the chaos plan never fired a compute fault")
			}
			if m.PanicsRecovered == 0 {
				t.Error("no panic was recovered; the nth-occurrence crash rule never fired")
			}
		})
	}
}

// TestChaosSoakDeterministicFires pins the determinism of the harness itself:
// the same seed driving the same jobs through the same points must fire the
// same injections, independent of scheduling. Two runs of a single-worker
// service (serialized occurrence order) must agree exactly on every point's
// fire count.
func TestChaosSoakDeterministicFires(t *testing.T) {
	run := func() map[string]int64 {
		if err := faultinject.Enable(chaosPlan(99)); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Disable()
		svc := newTestService(t, Options{Workers: 1, QueueDepth: 1024})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, spec := range soakSpecs(10) {
			job, err := svc.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Wait(ctx); err != nil && Classify(err) == CodeInternal {
				t.Fatalf("non-taxonomy failure: %v", err)
			}
		}
		fires := make(map[string]int64)
		for _, p := range faultinject.Points() {
			fires[p.Name()] = p.Fires()
		}
		return fires
	}
	a, b := run(), run()
	for p, n := range a {
		if b[p] != n {
			t.Errorf("point %s fired %d then %d times for the same seed", p, n, b[p])
		}
	}
}

// TestServiceCloseUnderChaos checks shutdown liveness with faults armed:
// Close must reap in-flight jobs and return.
func TestServiceCloseUnderChaos(t *testing.T) {
	if err := faultinject.Enable(chaosPlan(5)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
	svc := New(Options{Workers: 4, QueueDepth: 256})
	var jobs []*Job
	var rejected int64
	for _, spec := range soakSpecs(12) {
		job, n := submitChaos(t, svc, spec)
		jobs = append(jobs, job)
		rejected += n
	}
	if fires := faultinject.SimsvcCoalesce.Fires(); rejected != fires {
		t.Fatalf("%d submissions rejected by the coalesce fault, which fired %d times", rejected, fires)
	}
	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Close deadlocked under chaos")
	}
	// Every job must be settled after Close — success, failure, or canceled.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, job := range jobs {
		if _, err := job.Wait(ctx); ctx.Err() != nil {
			t.Fatalf("job %d unsettled after Close", i)
		} else if err != nil && !errors.Is(err, context.Canceled) && Classify(err) == CodeInternal {
			t.Fatalf("job %d settled outside the taxonomy: %v", i, err)
		}
	}
}
