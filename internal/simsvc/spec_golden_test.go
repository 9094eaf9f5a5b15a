package simsvc

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"kagura/internal/workload"
)

// inlineProbe is a small inline workload; inlineProbeSpaced is the same
// definition with different whitespace and field order.
const (
	inlineProbe = `{"name":"svc-probe","seed":7,"regions":[{"base":268435456,"sizeWords":64,"class":"narrow"}],` +
		`"phases":[{"iterations":500,"codeBase":65536,"body":["arith","load hot 0","store seq 0"]}]}`
	inlineProbeSpaced = `{
		"seed": 7, "name": "svc-probe",
		"phases": [{"codeBase": 65536, "iterations": 500,
		            "body": ["arith", "load hot 0", "store seq 0"]}],
		"regions": [{"class": "narrow", "base": 268435456, "sizeWords": 64}]
	}`
)

// goldenSpecs is the key corpus: app and inline workloads, trace aliases,
// codec spellings, every design, policy and trigger, and the controller
// overrides.
var goldenSpecs = map[string]RunSpec{
	"app-default":       {App: "jpeg"},
	"app-scale":         {App: "gsm", Scale: 0.5},
	"app-timeout":       {App: "jpeg", TimeoutSeconds: 30},
	"trace-rf":          {App: "jpeg", Trace: "rf"},
	"trace-rfhome":      {App: "jpeg", Trace: "rfhome"},
	"trace-RFHome-seed": {App: "jpeg", Trace: "RFHome", Seed: 7},
	"trace-Solar":       {App: "jpeg", Trace: "Solar"},
	"trace-solar-seed":  {App: "jpeg", Trace: "solar", Seed: 3},
	"trace-thermal":     {App: "jpeg", Trace: "thermal"},
	"codec-bdi":         {App: "jpeg", Codec: "bdi"},
	"codec-BDI-acc":     {App: "jpeg", Codec: "BDI", ACC: true},
	"codec-fpc-acc":     {App: "jpeg", Codec: "fpc", ACC: true},
	"codec-cpack":       {App: "jpeg", Codec: "cpack"},
	"codec-dzc":         {App: "jpeg", Codec: "DZC"},
	"codec-bpc":         {App: "jpeg", Codec: "BPC"},
	"codec-fvc":         {App: "jpeg", Codec: "fvc"},
	"design-nvmr":       {App: "jpeg", Design: "nvmr"},
	"design-sweepcache": {App: "jpeg", Design: "SweepCache"},
	"design-nvsram":     {App: "jpeg", Design: "NVSRAMCache"},
	"kagura-default":    {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true},
	"policy-miad":       {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, Policy: "miad"},
	"policy-AIAD":       {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, Policy: "AIAD"},
	"policy-MIMD":       {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, Policy: "MIMD"},
	"trigger-memory":    {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, Trigger: "memory"},
	"trigger-vol":       {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, Trigger: "vol"},
	"trigger-voltage":   {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, Trigger: "voltage"},
	"increase-step":     {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, IncreaseStep: 0.15},
	"counter-bits":      {App: "jpeg", Codec: "BDI", ACC: true, Kagura: true, CounterBits: 3},
	"decay-prefetch":    {App: "susan", DecayInterval: 600, Prefetch: true},
	"cyclelog-maxsim":   {App: "susan", CycleLog: true, MaxSimSeconds: 30},
	"inline":            {Workload: json.RawMessage(inlineProbe), Codec: "BDI", ACC: true},
	"inline-spaced":     {Workload: json.RawMessage(inlineProbeSpaced), Codec: "bdi", ACC: true, Scale: 3},
}

// goldenKeys are the content keys of goldenSpecs as the service computed
// them when this table was recorded. Persistent stores and intent journals
// are addressed by these keys, so a change here orphans every existing
// store and journal directory.
var goldenKeys = map[string]string{
	"app-default":       "97279bbbc597bb9167239cf62a88a79922c57ed62f7b291cfaad90b603f098ad",
	"app-scale":         "0444a0a33053e46e70f32f217a948b7440ecc3e9e068571afdca0d7c6484327c",
	"app-timeout":       "97279bbbc597bb9167239cf62a88a79922c57ed62f7b291cfaad90b603f098ad",
	"codec-BDI-acc":     "579ad920e2a3e50ad0068e2b9a0ae025d472aa4322d435c45836235367e48f14",
	"codec-bdi":         "87adfa1f468a67ec8ed8014da942e0762bbe8204f76f3d5335dff8ab56fa926e",
	"codec-bpc":         "24fe15178f9a9d2d25b94a56078fbfe85d562eab813d7d1b5d27a224b6c37f1f",
	"codec-cpack":       "1ac2757ce3cb5c82b2c4c5302fe3ef2bdad1ddebb0657ee2eee9ad38415acc00",
	"codec-dzc":         "e8e8274a41445382a04dd9cf156d141f17da3035352ff51117322e80343b235c",
	"codec-fpc-acc":     "e6849b489cbb0b442f0df6dd303cc1120c646a422039d95bdf61aefb98cf1615",
	"codec-fvc":         "f13f2ca7b5c8a99c15acde85ad115224eb7605d50930ba1faae55462cf7c0ef9",
	"counter-bits":      "d1df65e3753def64c67150cee88c90ecb5b96f29660867d7d4068784dc50d599",
	"cyclelog-maxsim":   "7eb1864555a81aa0bc3ef13ad442304c52c5de9b197403860158815abd10d454",
	"decay-prefetch":    "032612bffce78b7af026bd9f4b33629f331e20f160ebfa97c93e5121ed17ecfb",
	"design-nvmr":       "56be44b2e3a8b03f16e53df1096feb004af638620f112fdacaa65fca6da82335",
	"design-nvsram":     "97279bbbc597bb9167239cf62a88a79922c57ed62f7b291cfaad90b603f098ad",
	"design-sweepcache": "c3f64e64ee9fa1b04bcd4f3382936aadc6e7a6b91ad932d7b0aa8084775d364a",
	"increase-step":     "e29ab460112ca108c203ca8b4583328cb5ef0e15a5630aa6fb94abeb9c3de270",
	"inline":            "369cd418e175099eccb4fb40d8c3412ce85f92c2d602e910ee22de43eaccd9d9",
	"inline-spaced":     "369cd418e175099eccb4fb40d8c3412ce85f92c2d602e910ee22de43eaccd9d9",
	"kagura-default":    "b56f2c5ee0a67ca923c637109772a416327b9820fcaef53e97dfcc550fdeac47",
	"policy-AIAD":       "fed76950a0db8a330eac656f463cb39ab891582047145e8e91569a2bdfcaddf8",
	"policy-MIMD":       "e993085c7a3d40d70715ce33ade65a18fcf2969acf551e7e7b0beb93dc8c77c0",
	"policy-miad":       "2fb9956a9c71e9f5df66e87a95f8f463c52a3c0713761e8c653732ac3b015687",
	"trace-RFHome-seed": "f246e7277d0a138e969c3176448e692f02dd979702e276f87e028d8ef504e13b",
	"trace-Solar":       "adda79514f41254c40c376ffe1b04259159a4ae59b7db3919a0f184d856e9290",
	"trace-rf":          "97279bbbc597bb9167239cf62a88a79922c57ed62f7b291cfaad90b603f098ad",
	"trace-rfhome":      "97279bbbc597bb9167239cf62a88a79922c57ed62f7b291cfaad90b603f098ad",
	"trace-solar-seed":  "d31033be963b62a10edddcb8c73dff12e1e88037ad4712d76425ed842b6d87bf",
	"trace-thermal":     "673680a49c11e442f0d4ec7b08b666d1bab3068582b79f3acf72b25313c461a6",
	"trigger-memory":    "b56f2c5ee0a67ca923c637109772a416327b9820fcaef53e97dfcc550fdeac47",
	"trigger-vol":       "5f5c886a5182c7bf9ad304f53de6a6d96ca334704dd9365df69b04b1c1a06806",
	"trigger-voltage":   "5f5c886a5182c7bf9ad304f53de6a6d96ca334704dd9365df69b04b1c1a06806",
}

// goldenForkKey is forkKey(app-default, 5000, kagura-default).
const goldenForkKey = "fb81f769bec65e062e2f4cf075cc0232900f2e6830a4ffc506910ec2cfbd739f"

func TestGoldenKeys(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	for name, spec := range goldenSpecs {
		key, err := spec.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key != goldenKeys[name] {
			t.Errorf("%s: key %s, recorded %s", name, key, goldenKeys[name])
		}
		// Submit keys jobs through resolve, not Key.
		if _, key, _, err := svc.resolve(spec); err != nil || key != goldenKeys[name] {
			t.Errorf("%s: resolve key %s (err %v), recorded %s", name, key, err, goldenKeys[name])
		}
	}
	base, _ := goldenSpecs["app-default"].Key()
	cold, _ := goldenSpecs["kagura-default"].Key()
	if got := forkKey(base, 5000, cold); got != goldenForkKey {
		t.Errorf("forkKey %s, recorded %s", got, goldenForkKey)
	}
}

// TestNormalizeAcceptsOnlyBuildableSpecs pins the contract that lets the
// service build a job's simulator config in the worker instead of at
// submit: every spec Normalize accepts, across the cross-product of the
// spec dimensions, also materializes through Config. A spec that passed
// submission can therefore never fail as a job because of the spec.
func TestNormalizeAcceptsOnlyBuildableSpecs(t *testing.T) {
	type kag struct {
		on           bool
		policy, trig string
		step         float64
		bits         int
	}
	kags := []kag{{}, {policy: "AIMD"}, {trig: "mem"}, {step: 0.1}, {bits: 2},
		{on: true, step: 0.15, bits: 3}, {on: true, step: 1}, {on: true, bits: 9}, {on: true, step: -0.1}}
	for _, p := range []string{"", "miad", "AIAD", "MIMD", "PID"} {
		for _, tr := range []string{"", "memory", "vol", "thermal"} {
			kags = append(kags, kag{on: true, policy: p, trig: tr})
		}
	}

	// Codec, ACC and the controller knobs constrain each other, so they are
	// crossed in full; design and trace are independent of them.
	var specs []RunSpec
	for _, codec := range []string{"", "bdi", "FPC", "C-Pack", "fvc", "LZ77"} {
		for _, acc := range []bool{false, true} {
			for _, k := range kags {
				specs = append(specs, RunSpec{App: "jpeg", Scale: 0.01, Codec: codec, ACC: acc,
					Kagura: k.on, Policy: k.policy, Trigger: k.trig, IncreaseStep: k.step, CounterBits: k.bits})
			}
		}
	}
	for _, design := range []string{"", "nvmr", "SweepCache", "RAMCloud"} {
		for _, trace := range []string{"", "rf", "rfhome", "Solar", "thermal", "wind"} {
			for _, kagura := range []bool{false, true} {
				specs = append(specs, RunSpec{App: "jpeg", Scale: 0.01, Design: design, Trace: trace, Seed: 2, Kagura: kagura})
			}
		}
	}
	for _, app := range append(workload.Names(), "nope") {
		specs = append(specs, RunSpec{App: app, Scale: 0.01})
	}
	specs = append(specs,
		RunSpec{Workload: json.RawMessage(inlineProbe)},
		RunSpec{Workload: json.RawMessage(inlineProbeSpaced), Scale: 3, Codec: "dzc", ACC: true},
		RunSpec{App: "susan", Scale: 0.01, DecayInterval: 600, Prefetch: true, CycleLog: true, MaxSimSeconds: 30},
		RunSpec{App: "susan", Scale: 0.01, DecayInterval: -1},
		RunSpec{App: "susan", Scale: -1},
		RunSpec{App: "susan", Scale: 0.01, MaxSimSeconds: -1},
	)

	accepted := 0
	for _, spec := range specs {
		norm, err := spec.Normalize()
		if err != nil {
			continue
		}
		accepted++
		if _, err := norm.Config(); err != nil {
			t.Errorf("Normalize accepted %+v but Config failed: %v", spec, err)
		}
	}
	if accepted == 0 || accepted == len(specs) {
		t.Fatalf("%d of %d specs accepted: the corpus must mix valid and invalid specs", accepted, len(specs))
	}
}

// TestSubmitBuildsNoConfig bounds what Submit allocates. One synthesized
// 200k-sample power trace is 1.6 MB, so building a trace or a simulator
// config on the submit path fails the bound: a cold job builds its config in
// the worker, and a cache hit never builds one.
func TestSubmitBuildsNoConfig(t *testing.T) {
	svc := newTestService(t, Options{Workers: 1})
	allocs := func(submits int) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < submits; i++ {
			if _, err := svc.Submit(quickSpec()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// Cold: the only worker is busy, so nothing but Submit allocates.
	release := occupyWorker(t, svc)
	if got := allocs(1); got >= 1<<20 {
		t.Errorf("a cold Submit allocated %d bytes, want < 1 MiB", got)
	}
	close(release)
	if _, err := svc.Run(context.Background(), quickSpec()); err != nil {
		t.Fatal(err)
	}

	const hits = 10
	if got := allocs(hits); got >= 1<<20 {
		t.Errorf("%d cache-hit submits allocated %d bytes, want < 1 MiB", hits, got)
	}
	if m := svc.Metrics(); m.JobsRun != 2 || m.JobsCached != 1+hits {
		t.Fatalf("run=%d cached=%d, want 2 runs (hog and spec) and %d hits", m.JobsRun, m.JobsCached, 1+hits)
	}
}
