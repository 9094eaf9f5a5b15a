package journal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenRecords holds one record of each of the five types.
var goldenRecords = []Record{
	{Type: TypeJobSubmit, Key: "job-a", Spec: json.RawMessage(`{"app":"jpeg","scale":0.5}`)},
	{Type: TypeJobSettle, Key: "job-a"},
	{Type: TypeCampaignStart, Campaign: "c1", SpecHash: "feedface", CampaignSpec: json.RawMessage(`{"name":"sweep"}`)},
	{Type: TypeCampaignWave, Campaign: "c1", Wave: 1, Points: []int{0, 3}, Strategy: json.RawMessage(`{"strides":[1]}`)},
	{Type: TypeCampaignDone, Campaign: "c1"},
}

// goldenSegmentHex is the version-1 segment holding goldenRecords, in full.
// A change here is a format change, which needs a version bump and a
// migration test.
const goldenSegmentHex = "" +
	"4b41474a524e4c000100" +
	"0131000000eccf17b77b226b6579223a226a6f622d61222c2273706563223a7b22617070223a226a706567222c227363616c65223a302e357d7d" +
	"020f0000003c136c897b226b6579223a226a6f622d61227d" +
	"0347000000cc406d6c7b2263616d706169676e223a226331222c227370656348617368223a226665656466616365222c2263616d706169676e53706563223a7b226e616d65223a227377656570227d7d" +
	"0444000000d66a80917b2263616d706169676e223a226331222c2277617665223a312c22706f696e7473223a5b302c335d2c227374726174656779223a7b2273747269646573223a5b315d7d7d" +
	"05110000000bf9dbdd7b2263616d706169676e223a226331227d"

func TestGoldenSegmentBytes(t *testing.T) {
	seg := EncodeHeader()
	for _, rec := range goldenRecords {
		blob, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, blob...)
	}
	if got := hex.EncodeToString(seg); got != goldenSegmentHex {
		t.Errorf("segment =\n%s\nwant\n%s", got, goldenSegmentHex)
	}
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	ins, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ins.HeaderErr != nil || ins.Damage != nil || !reflect.DeepEqual(ins.Records, goldenRecords) {
		t.Fatalf("Inspect(golden segment) = %+v", ins)
	}
}

// TestFixtureDirectoryFolds opens a copy of a journal directory written by
// an earlier build through Append and Close: every record must be recovered,
// nothing truncated or quarantined, and the fold must match.
func TestFixtureDirectoryFolds(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "v1", segmentName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir), src, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	m := j.Metrics()
	if m.RecoveredRecords != 8 || m.TornBytesTruncated != 0 || m.CorruptSegments != 0 {
		t.Fatalf("recovery metrics = %+v, want 8 records, nothing torn or corrupt", m)
	}
	want := State{
		Pending: map[string]JobIntent{
			"job-b": {
				Key:        "job-b",
				Spec:       json.RawMessage(`{"app":"gsm"}`),
				ForkCycles: 5000,
				ForkBase:   json.RawMessage(`{"app":"gsm","scale":1}`),
			},
		},
		Campaigns: map[string]*CampaignIntent{
			"c1": {
				ID:       "c1",
				SpecHash: "feedface",
				Spec:     json.RawMessage(`{"name":"sweep"}`),
				Waves: []WaveCheckpoint{
					{Wave: 1, Points: []int{0, 3}, Strategy: json.RawMessage(`{"strides":[2]}`)},
				},
			},
		},
	}
	if got := j.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %+v, want %+v", got, want)
	}
	after, err := os.ReadFile(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, src) {
		t.Fatal("opening a clean segment changed its bytes")
	}
}
