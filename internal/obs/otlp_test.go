package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"
)

// otlpTestTrace builds a three-phase trace (queued → store → compute) with
// exact second boundaries off a fixed origin.
func otlpTestTrace(origin time.Time) *Trace {
	tr := NewTrace(origin)
	tr.Begin(PhaseQueued, origin)
	tr.Begin(PhaseStore, origin.Add(1*time.Second))
	tr.Begin(PhaseCompute, origin.Add(2*time.Second))
	tr.End(origin.Add(5 * time.Second))
	return tr
}

func TestMarshalOTLPShape(t *testing.T) {
	origin := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	blob, err := otlpTestTrace(origin).MarshalOTLP("kagura-simsvc", "job-000001", origin.Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	var req struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Scope struct {
					Name string `json:"name"`
				} `json:"scope"`
				Spans []struct {
					TraceID           string `json:"traceId"`
					SpanID            string `json:"spanId"`
					Name              string `json:"name"`
					Kind              int    `json:"kind"`
					StartTimeUnixNano string `json:"startTimeUnixNano"`
					EndTimeUnixNano   string `json:"endTimeUnixNano"`
					Attributes        []struct {
						Key   string `json:"key"`
						Value struct {
							IntValue string `json:"intValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(blob, &req); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(req.ResourceSpans) != 1 || len(req.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("want exactly one resource with one scope, got %s", blob)
	}
	res := req.ResourceSpans[0]
	if got := res.Resource.Attributes; len(got) != 1 || got[0].Key != "service.name" || got[0].Value.StringValue != "kagura-simsvc" {
		t.Fatalf("resource attributes = %+v, want service.name", got)
	}
	if res.ScopeSpans[0].Scope.Name != "kagura/obs" {
		t.Fatalf("scope name = %q", res.ScopeSpans[0].Scope.Name)
	}

	spans := res.ScopeSpans[0].Spans
	if len(spans) != 3 {
		t.Fatalf("span count = %d, want 3", len(spans))
	}
	wantNames := []string{PhaseQueued, PhaseStore, PhaseCompute}
	seenSpanIDs := map[string]bool{}
	for i, sp := range spans {
		if sp.Name != wantNames[i] {
			t.Errorf("span[%d].name = %q, want %q", i, sp.Name, wantNames[i])
		}
		if sp.Kind != otlpSpanKindInternal {
			t.Errorf("span[%d].kind = %d, want %d", i, sp.Kind, otlpSpanKindInternal)
		}
		if len(sp.TraceID) != 32 {
			t.Errorf("span[%d].traceId = %q, want 32 hex chars", i, sp.TraceID)
		}
		if sp.TraceID != spans[0].TraceID {
			t.Errorf("span[%d] has a different traceId", i)
		}
		if len(sp.SpanID) != 16 {
			t.Errorf("span[%d].spanId = %q, want 16 hex chars", i, sp.SpanID)
		}
		if seenSpanIDs[sp.SpanID] {
			t.Errorf("span[%d] repeats spanId %q", i, sp.SpanID)
		}
		seenSpanIDs[sp.SpanID] = true
		start, err := strconv.ParseInt(sp.StartTimeUnixNano, 10, 64)
		if err != nil {
			t.Fatalf("span[%d] start: %v", i, err)
		}
		end, err := strconv.ParseInt(sp.EndTimeUnixNano, 10, 64)
		if err != nil {
			t.Fatalf("span[%d] end: %v", i, err)
		}
		wantStart := origin.Add(time.Duration(i) * time.Second).UnixNano()
		if start != wantStart {
			t.Errorf("span[%d] starts at %d, want %d", i, start, wantStart)
		}
		if end < start {
			t.Errorf("span[%d] ends before it starts", i)
		}
	}
	// The last span covers seconds 2..5.
	last := spans[2]
	if got := origin.Add(5 * time.Second).UnixNano(); last.EndTimeUnixNano != strconv.FormatInt(got, 10) {
		t.Errorf("compute span end = %s, want %d", last.EndTimeUnixNano, got)
	}
	// A job computes at most once, so no span carries attributes.
	for i, sp := range spans {
		if len(sp.Attributes) != 0 {
			t.Errorf("span[%d] attributes = %+v, want none", i, sp.Attributes)
		}
	}
}

func TestMarshalOTLPDeterministic(t *testing.T) {
	origin := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	now := origin.Add(5 * time.Second)
	a, err := otlpTestTrace(origin).MarshalOTLP("svc", "job-1", now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := otlpTestTrace(origin).MarshalOTLP("svc", "job-1", now)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("equal traces marshal to different bytes")
	}
	// A different job yields a different trace identity.
	c, err := otlpTestTrace(origin).MarshalOTLP("svc", "job-2", now)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different jobs marshal to the same trace identity")
	}
}

func TestMarshalOTLPNilAndEmpty(t *testing.T) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var nilTrace *Trace
	blob, err := nilTrace.MarshalOTLP("svc", "job", now)
	if err != nil {
		t.Fatalf("nil trace: %v", err)
	}
	var req map[string]any
	if err := json.Unmarshal(blob, &req); err != nil {
		t.Fatalf("nil trace export is not valid JSON: %v", err)
	}
	blob, err = NewTrace(now).MarshalOTLP("svc", "job", now)
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if err := json.Unmarshal(blob, &req); err != nil {
		t.Fatalf("empty trace export is not valid JSON: %v", err)
	}
}
