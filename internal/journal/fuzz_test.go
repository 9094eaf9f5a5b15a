package journal

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzSeedRecords covers every record type plus the size extremes the
// bit-flip and truncation tables below mutate.
func fuzzSeedRecords(f *testing.F) [][]byte {
	f.Helper()
	recs := []Record{
		{Type: TypeJobSubmit, Key: "k", Spec: json.RawMessage(`{"app":"jpeg","scale":0.5}`)},
		{Type: TypeJobSubmit, Key: "fork", Spec: json.RawMessage(`{"app":"fft"}`), ForkCycles: 1000, ForkBase: json.RawMessage(`{"app":"fft","scale":1}`)},
		{Type: TypeJobSettle, Key: "k"},
		{Type: TypeCampaignStart, Campaign: "c1", SpecHash: "deadbeef", CampaignSpec: json.RawMessage(`{"name":"sweep","axes":[]}`)},
		{Type: TypeCampaignWave, Campaign: "c1", Wave: 3, Points: []int{0, 7, 63}, Strategy: json.RawMessage(`{"strides":[2,2],"evaluated":[0,7]}`)},
		{Type: TypeCampaignDone, Campaign: "c1"},
	}
	var out [][]byte
	for _, rec := range recs {
		blob, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// FuzzJournalDecode drives DecodeRecord with arbitrary bytes. The contract
// mirrors FuzzStoreDecode's: decode never panics and never silently
// misreads — it either errors, or returns a record whose re-encoding is
// byte-identical to the consumed input (the canonical-payload check gives
// the format exactly one encoding per value, which is what keeps segment
// compaction deterministic).
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHeader())
	blobs := fuzzSeedRecords(f)
	for _, blob := range blobs {
		f.Add(blob)
		// Truncation table: every prefix boundary that has caught framing
		// bugs — inside the frame, at the payload edge, one byte short.
		for _, cut := range []int{1, frameLen - 1, frameLen, len(blob) - 1} {
			if cut > 0 && cut < len(blob) {
				f.Add(blob[:cut])
			}
		}
		// Bit-flip table: type byte, length prefix, checksum, payload.
		for _, pos := range []int{0, 2, 6, frameLen + 1} {
			if pos < len(blob) {
				flipped := append([]byte(nil), blob...)
				flipped[pos] ^= 0x40
				f.Add(flipped)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeRecord consumed %d of %d bytes", n, len(data))
		}
		out, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record failed to encode: %v", err)
		}
		if !bytes.Equal(out, data[:n]) {
			t.Fatal("encode/decode fixed point violated")
		}
	})
}

// FuzzJournalSegment feeds whole fuzzed segments through scanSegment, the
// one scan behind both Open's recovery and Inspect: whatever bytes land in a
// journal file, it must not panic, every record it accepts must re-encode
// canonically, and the good prefix it reports must be exactly those records.
func FuzzJournalSegment(f *testing.F) {
	blobs := fuzzSeedRecords(f)
	seg := EncodeHeader()
	for _, blob := range blobs {
		seg = append(seg, blob...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte("KAGSTOR\x00 wrong log"))
	f.Fuzz(func(t *testing.T, data []byte) {
		off := headerLen
		end, headerErr, _ := scanSegment(data, func(rec Record) {
			out, err := EncodeRecord(rec)
			if err != nil || !bytes.HasPrefix(data[off:], out) {
				t.Fatalf("record at offset %d not canonical (err %v)", off, err)
			}
			off += len(out)
		})
		if headerErr == nil && end != off {
			t.Fatalf("scan ended at offset %d, records cover %d", end, off)
		}
	})
}
