// Record framing for the intent journal. A journal segment is one file: a
// fixed header identifying the format, followed by a sequence of framed
// records, each carrying a checksum so a torn or bit-flipped tail is detected
// on replay instead of being decoded into garbage.
//
// Format (version 1), all integers little-endian:
//
//	segment header:
//	  magic     8  bytes  "KAGJRNL\x00"
//	  version   2  bytes  uint16 (this file: 1)
//	record, repeated:
//	  type      1  byte   Type (job submit / job settle / campaign …)
//	  paylen    4  bytes  uint32 payload length (≤ MaxRecordBytes)
//	  checksum  4  bytes  CRC-32C (Castagnoli) over the payload
//	  payload   paylen bytes, canonical JSON (one Record)
//
// The segment header is a frame header and each record after its type byte
// is a frame block, so DecodeRecord has frame.Reader's hardening: every
// length prefix is bounded by the bytes actually remaining before any
// allocation, unknown type/version values are errors, and no input can cause
// a panic
// (FuzzJournalDecode holds the codec to that). The payload must additionally
// be *canonical* — byte-equal to what EncodeRecord would produce for the
// decoded record — which makes decode∘encode a fixed point and keeps
// compaction (rewrite the folded state as fresh records) byte-deterministic.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"

	"kagura/internal/frame"
)

// Magic identifies a kagura journal segment file.
const Magic = "KAGJRNL\x00"

// Version is the current segment format version. DecodeHeader refuses any
// other value: old readers must fail loudly rather than misinterpret newer
// layouts.
const Version uint16 = 1

// MaxRecordBytes bounds a single record's payload. The largest legitimate
// payload is a campaign-start record embedding a full campaign spec, itself
// capped at 1 MiB by campaign.MaxSpecBytes; 4 MiB leaves headroom without
// letting a hostile length prefix demand an unbounded allocation.
const MaxRecordBytes = 4 << 20

// headerLen is the segment header size; frameLen is the per-record framing
// overhead before the payload.
const (
	headerLen = frame.HeaderLen
	frameLen  = 1 + frame.BlockOverhead
)

// Type tags what a record means to replay.
type Type uint8

// Record types. The journal is an intent log: submits and campaign waves
// record work the service promised to finish; settles and campaign-done
// records retire that promise.
const (
	// TypeJobSubmit records a journaled job entering the queue. Carries the
	// cache key, the normalized RunSpec, and — for warm-start forks — the
	// base spec and fork cycle so replay reconstructs the same cache identity.
	TypeJobSubmit Type = 1
	// TypeJobSettle retires a pending submit by key: the job reached a
	// terminal state the caller observed (done, or a deterministic failure).
	TypeJobSettle Type = 2
	// TypeCampaignStart records a campaign beginning: its manager ID, the
	// validated spec, and the spec's hash so resume can verify integrity.
	TypeCampaignStart Type = 3
	// TypeCampaignWave records one completed strategy wave: the point
	// indices submitted and the strategy's post-wave snapshot, enough to
	// fast-forward a resumed run to the next wave.
	TypeCampaignWave Type = 4
	// TypeCampaignDone retires a campaign: its report was built, or one of
	// its points panicked and would panic again. Either way there is
	// nothing to resume.
	TypeCampaignDone Type = 5
)

// String returns the type's label for listings and diagnostics.
func (t Type) String() string {
	switch t {
	case TypeJobSubmit:
		return "job-submit"
	case TypeJobSettle:
		return "job-settle"
	case TypeCampaignStart:
		return "campaign-start"
	case TypeCampaignWave:
		return "campaign-wave"
	case TypeCampaignDone:
		return "campaign-done"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

func validType(t Type) bool { return t >= TypeJobSubmit && t <= TypeCampaignDone }

// Record is the journal's unit of intent. One flat struct covers every type;
// which fields are required (and which must be absent) depends on Type —
// Validate pins that down so a record can't smuggle fields its type ignores.
type Record struct {
	// Type is carried in the frame, not the payload.
	Type Type `json:"-"`

	// Key is the content-addressed cache key (job submit and settle).
	Key string `json:"key,omitempty"`
	// Spec is the normalized simsvc.RunSpec JSON (job submit).
	Spec json.RawMessage `json:"spec,omitempty"`
	// ForkCycles and ForkBase describe a warm-start fork submit: replay must
	// go back through the fork path so the derived cache key matches.
	ForkCycles int64           `json:"forkCycles,omitempty"`
	ForkBase   json.RawMessage `json:"forkBase,omitempty"`

	// Campaign is the campaign ID (campaign start, wave, and done records).
	Campaign string `json:"campaign,omitempty"`
	// SpecHash is the SHA-256 hex of CampaignSpec (campaign start); resume
	// refuses a record whose embedded CampaignSpec no longer hashes to it.
	SpecHash string `json:"specHash,omitempty"`
	// CampaignSpec is the validated campaign spec JSON (campaign start).
	CampaignSpec json.RawMessage `json:"campaignSpec,omitempty"`
	// Wave is the 1-based wave number (campaign wave).
	Wave int `json:"wave,omitempty"`
	// Points are the space indices the wave submitted (campaign wave).
	Points []int `json:"points,omitempty"`
	// Strategy is the strategy's snapshot after generating this wave
	// (campaign wave): restore it and the next next() call yields wave+1.
	Strategy json.RawMessage `json:"strategy,omitempty"`
}

// Validate checks the per-type field contract. Encode and decode both
// enforce it, so no malformed record enters or leaves a segment.
func (r *Record) Validate() error {
	switch r.Type {
	case TypeJobSubmit:
		if r.Key == "" || len(r.Spec) == 0 {
			return fmt.Errorf("journal: job-submit record needs key and spec")
		}
		if (r.ForkCycles > 0) != (len(r.ForkBase) > 0) {
			return fmt.Errorf("journal: fork submit needs both forkCycles and forkBase")
		}
		if r.ForkCycles < 0 {
			return fmt.Errorf("journal: negative forkCycles %d", r.ForkCycles)
		}
		if r.Campaign != "" || r.SpecHash != "" || len(r.CampaignSpec) != 0 || r.Wave != 0 || r.Points != nil || len(r.Strategy) != 0 {
			return fmt.Errorf("journal: job-submit record carries campaign fields")
		}
	case TypeJobSettle:
		if r.Key == "" {
			return fmt.Errorf("journal: job-settle record needs key")
		}
		if len(r.Spec) != 0 || r.ForkCycles != 0 || len(r.ForkBase) != 0 ||
			r.Campaign != "" || r.SpecHash != "" || len(r.CampaignSpec) != 0 || r.Wave != 0 || r.Points != nil || len(r.Strategy) != 0 {
			return fmt.Errorf("journal: job-settle record carries extra fields")
		}
	case TypeCampaignStart:
		if r.Campaign == "" || r.SpecHash == "" || len(r.CampaignSpec) == 0 {
			return fmt.Errorf("journal: campaign-start record needs campaign, specHash, and campaignSpec")
		}
		if r.Key != "" || len(r.Spec) != 0 || r.ForkCycles != 0 || len(r.ForkBase) != 0 || r.Wave != 0 || r.Points != nil || len(r.Strategy) != 0 {
			return fmt.Errorf("journal: campaign-start record carries extra fields")
		}
	case TypeCampaignWave:
		if r.Campaign == "" || r.Wave < 1 || len(r.Points) == 0 || len(r.Strategy) == 0 {
			return fmt.Errorf("journal: campaign-wave record needs campaign, wave ≥ 1, points, and strategy")
		}
		for _, p := range r.Points {
			if p < 0 {
				return fmt.Errorf("journal: negative point index %d", p)
			}
		}
		if r.Key != "" || len(r.Spec) != 0 || r.ForkCycles != 0 || len(r.ForkBase) != 0 || r.SpecHash != "" || len(r.CampaignSpec) != 0 {
			return fmt.Errorf("journal: campaign-wave record carries extra fields")
		}
	case TypeCampaignDone:
		if r.Campaign == "" {
			return fmt.Errorf("journal: campaign-done record needs campaign")
		}
		if r.Key != "" || len(r.Spec) != 0 || r.ForkCycles != 0 || len(r.ForkBase) != 0 || r.SpecHash != "" || len(r.CampaignSpec) != 0 || r.Wave != 0 || r.Points != nil || len(r.Strategy) != 0 {
			return fmt.Errorf("journal: campaign-done record carries extra fields")
		}
	default:
		return fmt.Errorf("journal: unknown record type %d", uint8(r.Type))
	}
	return nil
}

// EncodeHeader returns the 10-byte segment header.
func EncodeHeader() []byte {
	w := &frame.Writer{Buf: make([]byte, 0, headerLen)}
	w.Header(Magic, Version)
	return w.Buf
}

// DecodeHeader validates a segment header prefix. data may hold the whole
// segment; only the first headerLen bytes are examined.
func DecodeHeader(data []byte) error {
	r := frame.NewReader("journal", data)
	r.Header(Magic, Version, "segment")
	return r.Err()
}

// EncodeRecord frames a record: type byte, payload length, CRC-32C, then the
// canonical JSON payload. The encoding is deterministic — equal records
// produce equal bytes — which is what lets compaction rewrite a segment
// byte-reproducibly.
func EncodeRecord(rec Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(&rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	w := &frame.Writer{Buf: make([]byte, 0, frameLen+len(payload))}
	w.U8(byte(rec.Type))
	w.Block(payload)
	return w.Buf, nil
}

// DecodeRecord parses one record from the front of data, returning the
// record and the number of bytes it occupied. Any malformation — truncated
// frame, oversized or unbounded length, checksum mismatch, invalid or
// non-canonical payload — is an error; no input panics.
func DecodeRecord(data []byte) (Record, int, error) {
	var rec Record
	r := frame.NewReader("journal", data)
	t := Type(r.U8())
	if r.Err() == nil && !validType(t) {
		return rec, 0, fmt.Errorf("journal: unknown record type %d", uint8(t))
	}
	payload := r.Block(MaxRecordBytes)
	if err := r.Err(); err != nil {
		return rec, 0, err
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, 0, fmt.Errorf("journal: decode record payload: %w", err)
	}
	if dec.More() {
		return rec, 0, fmt.Errorf("journal: trailing data after record payload")
	}
	rec.Type = t
	if err := rec.Validate(); err != nil {
		return rec, 0, err
	}
	// Canonical-form check: re-encoding the decoded record must reproduce
	// the payload byte for byte. This is what makes decode∘encode a fixed
	// point (FuzzJournalDecode asserts it) and compaction deterministic.
	canon, err := json.Marshal(&rec)
	if err != nil {
		return rec, 0, fmt.Errorf("journal: re-encode record payload: %w", err)
	}
	if !bytes.Equal(canon, payload) {
		return rec, 0, fmt.Errorf("journal: non-canonical record payload")
	}
	return rec, r.Offset(), nil
}
