package obs

// OTLP-shaped JSON export of a job trace, for offline analysis with the
// OpenTelemetry ecosystem (otel-cli, Jaeger's OTLP/JSON importer, jq). The
// output follows the OTLP/JSON span encoding — resourceSpans → scopeSpans →
// spans with hex trace/span IDs and stringified unix-nano timestamps — but
// is produced by hand: pulling in an OTLP SDK for one marshaller would
// break the zero-dependency rule, and the subset here is tiny.
//
// Like everything in obs, this is clock-free and deterministic: the caller
// passes the trace identity and the snapshot instant, and equal inputs
// marshal to equal bytes (spans are emitted in recorded order, IDs are
// derived by hashing, and the JSON is rendered field-by-field).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// otlpSpanKindInternal is the OTLP enum value for an internal (in-process)
// span, which is what every job phase is.
const otlpSpanKindInternal = 1

// MarshalOTLP renders the trace as one OTLP/JSON ExportTraceServiceRequest:
// a single resource (service.name = serviceName), a single scope, and one
// span per phase span of the trace. traceID seeds the 16-byte trace ID and
// the per-span IDs (both derived by hashing, so any string works); now is
// the snapshot instant an open span is reported through, exactly as in
// Spans. Parent span IDs are omitted: phases are sequential, not nested.
func (t *Trace) MarshalOTLP(serviceName, traceID string, now time.Time) ([]byte, error) {
	spans := t.Spans(now)
	var origin time.Time
	if t != nil {
		t.mu.Lock()
		origin = t.origin
		t.mu.Unlock()
	}
	tid := otlpTraceID(traceID)
	otlpSpans := make([]otlpSpan, 0, len(spans))
	for i, s := range spans {
		start := origin.Add(time.Duration(s.StartSeconds * float64(time.Second)))
		end := origin.Add(time.Duration((s.StartSeconds + s.Seconds) * float64(time.Second)))
		otlpSpans = append(otlpSpans, otlpSpan{
			TraceID:           tid,
			SpanID:            otlpSpanID(traceID, i),
			Name:              s.Phase,
			Kind:              otlpSpanKindInternal,
			StartTimeUnixNano: fmt.Sprintf("%d", start.UnixNano()),
			EndTimeUnixNano:   fmt.Sprintf("%d", end.UnixNano()),
		})
	}
	req := otlpExport{
		ResourceSpans: []otlpResourceSpans{{
			Resource: otlpResource{
				Attributes: []otlpKeyValue{
					{Key: "service.name", Value: otlpValue{StringValue: serviceName}},
				},
			},
			ScopeSpans: []otlpScopeSpans{{
				Scope: otlpScope{Name: "kagura/obs"},
				Spans: otlpSpans,
			}},
		}},
	}
	return json.Marshal(req)
}

// otlpTraceID derives a 16-byte (32 hex char) OTLP trace ID from any string.
func otlpTraceID(id string) string {
	sum := sha256.Sum256([]byte("trace|" + id))
	return hex.EncodeToString(sum[:16])
}

// otlpSpanID derives the 8-byte (16 hex char) span ID for span index i.
func otlpSpanID(id string, i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("span|%s|%d", id, i)))
	return hex.EncodeToString(sum[:8])
}

// The OTLP/JSON wire shapes — only the subset emitted here.

type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string `json:"traceId"`
	SpanID            string `json:"spanId"`
	Name              string `json:"name"`
	Kind              int    `json:"kind"`
	StartTimeUnixNano string `json:"startTimeUnixNano"`
	EndTimeUnixNano   string `json:"endTimeUnixNano"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpValue is the OTLP AnyValue, reduced to the one variant emitted here.
type otlpValue struct {
	StringValue string `json:"stringValue"`
}
