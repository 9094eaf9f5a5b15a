package campaign

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"kagura/internal/faultinject"
	"kagura/internal/journal"
	"kagura/internal/simsvc"
)

// A dispatch fault fails a journaled campaign at once, with code
// fault_injected; nothing re-dispatches it. The recovery path is the journal:
// with faults off, a fresh Manager over the same journal resumes the failed
// campaign, and its exports are byte-identical to the fault-free run.
func TestCampaignChaosDispatchSettlesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign twice")
	}
	faultinject.Disable()
	wantJSON, wantCSV := cleanExports(t, smallSpec())

	dir := t.TempDir()
	func() {
		if err := faultinject.Enable(faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
			// Every other dispatch fails: the baseline's goes through, the
			// first wave's is refused.
			{Point: "campaign.dispatch", Kind: faultinject.KindError, Every: 2, Message: "chaos: dispatch"},
		}}); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Disable()
		jnl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		svc := simsvc.New(simsvc.Options{Workers: 4, QueueDepth: 256})
		defer svc.Close()
		mgr := NewManagerJournaled(svc, jnl)
		defer mgr.Close()

		id, err := mgr.Start(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := mgr.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
		_, err = mgr.Report(id)
		if code := simsvc.Classify(err); code != simsvc.CodeFaultInjected {
			t.Fatalf("campaign under dispatch faults settled with %v (%q), want %s", err, code, simsvc.CodeFaultInjected)
		}
		if n := faultinject.CampaignDispatch.Fires(); n != 1 {
			t.Fatalf("campaign.dispatch fired %d times, want 1: a failed dispatch must not be retried", n)
		}
		if _, ok := jnl.State().Campaigns[id]; !ok {
			t.Fatalf("failed campaign %s left no journal records to resume from", id)
		}
	}()

	gotJSON, gotCSV := resumeRun(t, dir, true)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("resumed JSON report differs from the fault-free run:\n%s\n---\n%s", wantJSON, gotJSON)
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Errorf("resumed CSV report differs from the fault-free run:\n%s\n---\n%s", wantCSV, gotCSV)
	}
}

// A point whose compute panics on every call is computed once: the panic
// settles its job, and the job's failure fails the campaign with code panic.
func TestCampaignPanickingPointComputedOnce(t *testing.T) {
	faultinject.Disable()
	if err := faultinject.Enable(faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Point: "simsvc.compute", Kind: faultinject.KindPanic, Every: 1, Message: "chaos: always"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	svc := newTestService(t, 1)
	spec := &Spec{
		Name: "panics",
		Base: simsvc.RunSpec{App: "jpeg"},
		Axes: []Axis{{Param: "scale", Values: rawVals(0.02)}},
	}
	_, err := (&Runner{Svc: svc, Met: &Metrics{}}).Run(context.Background(), spec)
	if code := simsvc.Classify(err); code != simsvc.CodePanic {
		t.Fatalf("campaign settled with %v (%q), want %s", err, code, simsvc.CodePanic)
	}
	if n := faultinject.SimsvcCompute.Fires(); n != 1 {
		t.Fatalf("the panicking point was computed %d times, want 1", n)
	}
	if n := svc.Metrics().PanicsRecovered; n != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", n)
	}
}

// narrowQueueSpec is a 6-point sweep, one chunk wider than a small queue.
func narrowQueueSpec() *Spec {
	return &Spec{
		Name: "narrow",
		Base: simsvc.RunSpec{App: "jpeg"},
		Axes: []Axis{{Param: "scale", Values: rawVals(0.30, 0.31, 0.32, 0.33, 0.34, 0.35)}},
	}
}

// A chunk wider than the queue waits for its own jobs to drain instead of
// failing "overloaded": on a 1-worker service with QueueDepth 1, 2 or 4 the
// campaign completes, and its report is byte-identical to the same campaign
// on a queue wide enough to take the chunk at once.
func TestCampaignNarrowQueueCompletes(t *testing.T) {
	faultinject.Disable()
	run := func(t *testing.T, depth int) ([]byte, []byte) {
		svc := simsvc.New(simsvc.Options{Workers: 1, QueueDepth: depth})
		defer svc.Close()
		return exports(t, runCampaign(t, svc, narrowQueueSpec()))
	}
	wantJSON, wantCSV := run(t, 256)
	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			gotJSON, gotCSV := run(t, depth)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Errorf("JSON report differs from QueueDepth 256:\n%s\n---\n%s", wantJSON, gotJSON)
			}
			if !bytes.Equal(wantCSV, gotCSV) {
				t.Errorf("CSV report differs from QueueDepth 256:\n%s\n---\n%s", wantCSV, gotCSV)
			}
		})
	}
}

// campaign.decode and campaign.export fail closed: an injected fault
// surfaces as an error instead of a torn spec or report.
func TestCampaignDecodeExportFaultsFailClosed(t *testing.T) {
	faultinject.Disable()
	if err := faultinject.Enable(faultinject.Plan{Seed: 3, Rules: []faultinject.Rule{
		{Point: "campaign.decode", Kind: faultinject.KindError, Every: 1, Message: "chaos: decode"},
		{Point: "campaign.export", Kind: faultinject.KindError, Every: 1, Message: "chaos: export"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	if _, err := DecodeSpec(bytes.NewReader([]byte(`{"base":{"app":"jpeg"},"axes":[{"param":"scale","values":[1]}]}`))); err == nil {
		t.Errorf("DecodeSpec ignored the injected decode fault")
	}
	rep := &Report{}
	if _, err := rep.ExportJSON(); err == nil {
		t.Errorf("ExportJSON ignored the injected export fault")
	}
	if _, err := rep.ExportCSV(); err == nil {
		t.Errorf("ExportCSV ignored the injected export fault")
	}
}

// A journaled campaign whose point panics is retired, not relaunched at
// every restart: after it fails with code panic, three simulated restarts
// resume nothing, compute nothing more, and leave no campaign in the
// journal.
func TestCampaignPanicRetiresJournal(t *testing.T) {
	faultinject.Disable()
	if err := faultinject.Enable(faultinject.Plan{Seed: 5, Rules: []faultinject.Rule{
		{Point: "simsvc.compute", Kind: faultinject.KindPanic, Every: 1, Message: "chaos: always"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	dir := t.TempDir()
	spec := &Spec{
		Name: "panics",
		Base: simsvc.RunSpec{App: "jpeg"},
		Axes: []Axis{{Param: "scale", Values: rawVals(0.02)}},
	}
	// restart opens the journal and a service as a fresh process would,
	// runs body, and returns the journal's campaigns afterwards.
	restart := func(body func(*Manager)) map[string]*journal.CampaignIntent {
		jnl, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer jnl.Close()
		svc := simsvc.New(simsvc.Options{Workers: 1, QueueDepth: 16})
		defer svc.Close()
		mgr := NewManagerJournaled(svc, jnl)
		defer mgr.Close()
		body(mgr)
		return jnl.State().Campaigns
	}

	restart(func(mgr *Manager) {
		id, err := mgr.Start(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Report(id); simsvc.Classify(err) != simsvc.CodePanic {
			t.Fatalf("campaign settled with %v, want code %s", err, simsvc.CodePanic)
		}
	})
	for i := 1; i <= 3; i++ {
		left := restart(func(mgr *Manager) {
			if ids := mgr.ResumeFromJournal(); len(ids) != 0 {
				t.Errorf("restart %d resumed %v", i, ids)
			}
		})
		if len(left) != 0 {
			t.Errorf("restart %d: the journal still holds %d campaigns", i, len(left))
		}
	}
	if n := faultinject.SimsvcCompute.Fires(); n != 1 {
		t.Fatalf("the panicking point was computed %d times, want 1", n)
	}
}
