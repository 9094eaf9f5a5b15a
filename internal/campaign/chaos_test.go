package campaign

import (
	"bytes"
	"context"
	"testing"

	"kagura/internal/faultinject"
)

// A campaign under injected dispatch faults must settle with a report
// byte-identical to the fault-free run: dispatch errors are transient, the
// engine's bounded re-dispatch is idempotent (the content-addressed cache
// coalesces duplicates), and the report carries no retry provenance. The
// decode and export points get the same treatment at their own boundaries.
func TestCampaignChaosDispatchSettlesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a campaign twice")
	}
	faultinject.Disable()

	spec := smallSpec()
	svc := newTestService(t, 4)
	clean := runCampaign(t, svc, spec)
	cleanJSON, cleanCSV := exports(t, clean)

	if err := faultinject.Enable(faultinject.Plan{Seed: 11, Rules: []faultinject.Rule{
		// Every other dispatch fails — far above any realistic fault rate, so
		// the retry path is guaranteed to run several times per campaign.
		{Point: "campaign.dispatch", Kind: faultinject.KindError, Every: 2, Message: "chaos: dispatch"},
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)

	met := &Metrics{}
	chaoticSvc := newTestService(t, 4)
	runner := &Runner{Svc: chaoticSvc, Met: met}
	chaotic, err := runner.Run(context.Background(), smallSpec())
	if err != nil {
		t.Fatalf("chaotic campaign failed to settle: %v", err)
	}
	if faultinject.CampaignDispatch.Fires() == 0 {
		t.Fatalf("no dispatch faults fired; the chaos plan is not exercising the engine")
	}
	if met.Snapshot().DispatchRetries == 0 {
		t.Fatalf("dispatch faults fired but no retries were counted")
	}

	chaoticJSON, err := chaotic.ExportJSON()
	if err != nil {
		t.Fatalf("ExportJSON under chaos: %v", err)
	}
	chaoticCSV, err := chaotic.ExportCSV()
	if err != nil {
		t.Fatalf("ExportCSV under chaos: %v", err)
	}
	if !bytes.Equal(cleanJSON, chaoticJSON) {
		t.Errorf("JSON report differs under dispatch chaos:\n%s\n---\n%s", cleanJSON, chaoticJSON)
	}
	if !bytes.Equal(cleanCSV, chaoticCSV) {
		t.Errorf("CSV report differs under dispatch chaos:\n%s\n---\n%s", cleanCSV, chaoticCSV)
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
