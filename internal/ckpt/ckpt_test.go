package ckpt

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// testConfig builds the full stack (ACC + Kagura + cycle log) for an app.
func testConfig(t testing.TB, app string) ehs.Config {
	t.Helper()
	w, err := workload.ByName(app, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ehs.Default(w, powertrace.RFHome(1)).WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
	cfg.CollectCycleLog = true
	return cfg
}

// totalCycles returns the straight-through run's cycle count; tests snapshot
// at fractions of it. Note a cycle target inside a recharge outage resolves
// to the end of the sleep (one step can advance time across the whole dead
// period), so distinct snapshot points should sit well apart.
func totalCycles(t testing.TB, app string) int64 {
	t.Helper()
	res, err := ehs.Run(testConfig(t, app))
	if err != nil {
		t.Fatal(err)
	}
	return int64(res.ExecSeconds / ehs.CyclePeriod)
}

// midCycle returns half the straight-through run's cycle count.
func midCycle(t testing.TB, app string) int64 {
	return totalCycles(t, app) / 2
}

// testSnapshot runs the full stack to the given cycle and captures a state
// where caches hold compressed lines, power cycles have completed, and both
// controllers carry history.
func testSnapshot(t testing.TB, app string, cycle int64) (*ehs.Snapshot, ehs.Config) {
	t.Helper()
	cfg := testConfig(t, app)
	s, err := ehs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunToCycle(context.Background(), cycle); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, cfg
}

// TestEncodeFitsItsBytes: an encoding's capacity stays within twice its
// length, so a small snapshot held in a queue does not pin a large buffer.
func TestEncodeFitsItsBytes(t *testing.T) {
	snap, _ := testSnapshot(t, "jpeg", 20_000)
	blob, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if cap(blob) > 2*len(blob) {
		t.Fatalf("Encode returned len %d with cap %d, want cap <= %d", len(blob), cap(blob), 2*len(blob))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap, _ := testSnapshot(t, "jpeg", midCycle(t, "jpeg"))
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Error("decode(encode(snap)) != snap")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	snap, _ := testSnapshot(t, "gsm", 1_000_000)
	a, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding the same snapshot twice produced different bytes")
	}
}

// TestDecodedSnapshotResumes: the end-to-end property the format exists for
// — a snapshot that went through bytes resumes to the same Result as the
// uninterrupted run.
func TestDecodedSnapshotResumes(t *testing.T) {
	ctx := context.Background()
	cfg := testConfig(t, "typeset")
	straight, err := ehs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := int64(straight.ExecSeconds/ehs.CyclePeriod) / 2
	snap, _ := testSnapshot(t, "typeset", mid)

	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ehs.RunFrom(ctx, decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, resumed) {
		t.Error("run resumed from decoded checkpoint diverged from straight-through run")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	snap, _ := testSnapshot(t, "jpeg", 500_000)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"short magic":     data[:4],
		"bad magic":       append([]byte("NOTCKPT\x00"), data[8:]...),
		"future version":  append(append([]byte(Magic), 0xFF, 0xFF), data[10:]...),
		"truncated":       data[:len(data)/2],
		"trailing bytes":  append(append([]byte(nil), data...), 0),
		"oversized count": append(append([]byte(nil), data[:10]...), 0xFF, 0xFF, 0xFF, 0xFF),
	}
	for name, input := range cases {
		if _, err := Decode(input); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestDescribe(t *testing.T) {
	snap, _ := testSnapshot(t, "gsm", 1_000_000)
	desc := Describe(snap)
	for _, want := range []string{snap.ConfigHash, "capacitor:", "icache:", "kagura:", "acc:"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe output missing %q:\n%s", want, desc)
		}
	}
	if Describe(nil) == "" {
		t.Error("Describe(nil) must not be empty")
	}
}

func TestDiff(t *testing.T) {
	total := totalCycles(t, "jpeg")
	a, _ := testSnapshot(t, "jpeg", total/2)
	b, _ := testSnapshot(t, "jpeg", total/2)
	if diffs := Diff(a, b); len(diffs) != 0 {
		t.Errorf("identical snapshots diff non-empty: %v", diffs)
	}
	later, _ := testSnapshot(t, "jpeg", total*7/8)
	diffs := Diff(a, later)
	if len(diffs) == 0 {
		t.Fatal("snapshots at different cycles diff empty")
	}
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"time:", "pos:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diff missing %q:\n%s", want, joined)
		}
	}
	if diffs := Diff(nil, a); len(diffs) != 1 {
		t.Errorf("nil vs snapshot should yield one presence diff, got %v", diffs)
	}
	if diffs := Diff(nil, nil); diffs != nil {
		t.Errorf("nil vs nil should be empty, got %v", diffs)
	}
	// Bit-level float changes must surface even when %g would print equal.
	c, _ := testSnapshot(t, "jpeg", total/2)
	c.Cap.Energy += 1e-18
	if diffs := Diff(a, c); len(diffs) == 0 {
		t.Error("sub-printable float change not reported")
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) must fail")
	}
}
