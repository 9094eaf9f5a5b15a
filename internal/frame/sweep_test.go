package frame_test

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"kagura/internal/ckpt"
	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/journal"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/store"
	"kagura/internal/workload"
)

// allocBound is the most a decode of n input bytes may allocate, whatever
// those bytes claim: 16 bytes per input byte plus 4 KiB of fixed overhead.
// A decoder allocates in proportion to its input only when every count it
// reads off the wire is bounded by the bytes that remain (frame.Reader's
// Count). The most the sweep below observed was 21.5 KiB from the
// 2,948-byte snapshot (ckpt.Decode), 7.3 bytes per input byte, so the bound
// leaves room. The fixed part is kept below 64 KiB so that one unbounded
// 16-bit byte count (0xFFFF bytes) exceeds the bound for every input the
// sweep uses (all under 3,840 bytes).
func allocBound(n int) uint64 { return 16*uint64(n) + 4<<10 }

// TestHostileLengthSweep overwrites every 2-byte and every 4-byte window of
// a real encoding with all-ones — the largest length prefix either width
// can claim — and decodes the result with each persisted format's decoder.
// No decode may panic, and none may allocate more than allocBound of its
// input. The fuzzers check only for panics and round trips; this checks the
// allocation bound itself.
func TestHostileLengthSweep(t *testing.T) {
	snapshot, result := sweepRun(t)
	resultEntry := mustEncode(store.EncodeEntry(store.KindResult, "sweep-result-key", result))
	checkpointEntry := mustEncode(store.EncodeEntry(store.KindCheckpoint, "warm|sweep-base|1000", snapshot))
	submit := mustEncode(journal.EncodeRecord(journal.Record{
		Type: journal.TypeJobSubmit, Key: "fork", Spec: json.RawMessage(`{"app":"fft"}`),
		ForkCycles: 1000, ForkBase: json.RawMessage(`{"app":"fft","scale":1}`),
	}))
	wave := mustEncode(journal.EncodeRecord(journal.Record{
		Type: journal.TypeCampaignWave, Campaign: "c1", Wave: 3, Points: []int{0, 7, 63},
		Strategy: json.RawMessage(`{"strides":[2,2],"evaluated":[0,7]}`),
	}))
	rows := []struct {
		name   string
		input  []byte
		decode func([]byte)
	}{
		{"ckpt.Decode", snapshot, func(b []byte) { ckpt.Decode(b) }},
		{"ckpt.DecodeResult", result, func(b []byte) { ckpt.DecodeResult(b) }},
		{"store.DecodeEntry", resultEntry, func(b []byte) { store.DecodeEntry(b) }},
		{"store.DecodeHeader", checkpointEntry, func(b []byte) { store.DecodeHeader(b) }},
		{"journal.DecodeRecord/submit", submit, func(b []byte) { journal.DecodeRecord(b) }},
		{"journal.DecodeRecord/wave", wave, func(b []byte) { journal.DecodeRecord(b) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			bound := allocBound(len(row.input))
			mutated := make([]byte, len(row.input))
			for _, width := range []int{2, 4} {
				for off := 0; off+width <= len(row.input); off++ {
					copy(mutated, row.input)
					for i := off; i < off+width; i++ {
						mutated[i] = 0xFF
					}
					if got := decodeAllocs(t, row.decode, mutated); got > bound {
						t.Fatalf("%d-byte window at offset %d: decode allocated %d bytes from a %d-byte input, bound %d",
							width, off, got, len(row.input), bound)
					}
				}
			}
		})
	}
}

// sweepRun encodes a mid-run snapshot and a finished result of a short run
// with ACC, Kagura and the cycle log on, so every length-prefixed section of
// both formats is present.
func sweepRun(t *testing.T) (snapshot, result []byte) {
	t.Helper()
	app, err := workload.ByName("jpeg", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ehs.Default(app, powertrace.RFHome(1)).WithACC(compress.BDI{}).WithKagura(kagura.DefaultConfig())
	cfg.CollectCycleLog = true
	sim, err := ehs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunToCycle(context.Background(), 20_000); err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ehs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mustEncode(ckpt.Encode(snap)), mustEncode(ckpt.EncodeResult(res))
}

func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// decodeAllocs runs decode on data and returns the bytes it allocated,
// failing the test if it panics.
func decodeAllocs(t *testing.T, decode func([]byte), data []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked: %v", r)
			}
		}()
		decode(data)
	}()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
