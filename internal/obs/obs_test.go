package obs

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// at returns a fixed base time plus an offset — traces are exercised with
// synthetic clocks, never the host's.
func at(ms int) time.Time {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(ms) * time.Millisecond)
}

func TestTraceContiguousSpans(t *testing.T) {
	tr := NewTrace(at(0))
	tr.Begin(PhaseQueued, at(0))
	tr.Begin(PhaseStore, at(10))
	tr.Begin(PhaseWarmStart, at(30))
	tr.Begin(PhaseCompute, at(50))
	tr.End(at(90))

	spans := tr.Spans(at(90))
	want := []Span{
		{Phase: PhaseQueued, StartSeconds: 0, Seconds: 0.010},
		{Phase: PhaseStore, StartSeconds: 0.010, Seconds: 0.020},
		{Phase: PhaseWarmStart, StartSeconds: 0.030, Seconds: 0.020},
		{Phase: PhaseCompute, StartSeconds: 0.050, Seconds: 0.040},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	var sum float64
	for i, s := range spans {
		if s.Phase != want[i].Phase {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
		if math.Abs(s.StartSeconds-want[i].StartSeconds) > 1e-9 || math.Abs(s.Seconds-want[i].Seconds) > 1e-9 {
			t.Errorf("span %d timing = %+v, want %+v", i, s, want[i])
		}
		sum += s.Seconds
	}
	// Contiguity: span durations sum to exactly last-end minus origin.
	if math.Abs(sum-0.090) > 1e-9 {
		t.Errorf("span sum %.6f, want 0.090", sum)
	}
}

func TestTraceOpenSpanExtendsToNow(t *testing.T) {
	tr := NewTrace(at(0))
	tr.Begin(PhaseQueued, at(0))
	spans := tr.Spans(at(25))
	if len(spans) != 1 || math.Abs(spans[0].Seconds-0.025) > 1e-9 {
		t.Fatalf("open span not extended: %+v", spans)
	}
	// The snapshot must not have closed the span.
	spans = tr.Spans(at(40))
	if len(spans) != 1 || math.Abs(spans[0].Seconds-0.040) > 1e-9 {
		t.Fatalf("snapshot closed the open span: %+v", spans)
	}
}

// TestTraceEndIsFinal: a job settled while the computation it started runs
// on for other jobs (a canceled first submitter) has an ended trace; the
// computation's later phase changes must not reopen it, or its spans would
// no longer sum to the job's wall time.
func TestTraceEndIsFinal(t *testing.T) {
	tr := NewTrace(at(0))
	tr.Begin(PhaseQueued, at(0))
	tr.Begin(PhaseCompute, at(10))
	tr.End(at(20))
	tr.Begin(PhaseWarmStart, at(30))
	tr.Begin(PhaseCompute, at(40))
	tr.End(at(50))

	spans := tr.Spans(at(60))
	want := []Span{
		{Phase: PhaseQueued, StartSeconds: 0, Seconds: 0.010},
		{Phase: PhaseCompute, StartSeconds: 0.010, Seconds: 0.010},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans after End, want %d: %+v", len(spans), len(want), spans)
	}
	for i, s := range spans {
		if s.Phase != want[i].Phase || math.Abs(s.StartSeconds-want[i].StartSeconds) > 1e-9 ||
			math.Abs(s.Seconds-want[i].Seconds) > 1e-9 {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Begin(PhaseQueued, at(0))
	tr.Begin(PhaseCompute, at(1))
	tr.End(at(2))
	if spans := tr.Spans(at(3)); spans != nil {
		t.Fatalf("nil trace returned spans: %+v", spans)
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom on bare context = %v, want nil", got)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace(at(0))
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 5, 25)
	for _, v := range []float64{0.5, 1, 3, 5, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Upper bounds are inclusive (Prometheus le semantics).
	wantCounts := []uint64{2, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 6 || math.Abs(s.Sum-116.5) > 1e-9 {
		t.Errorf("count=%d sum=%g, want 6 / 116.5", s.Count, s.Sum)
	}
}

func TestHistogramPrometheusRender(t *testing.T) {
	xSeconds := &Family{name: "x_seconds", typ: "histogram"}
	h := NewHistogram(1, 5)
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(50)
	var b strings.Builder
	h.Snapshot().WritePrometheus(&b, xSeconds, `phase="run"`)
	want := `x_seconds_bucket{phase="run",le="1"} 1
x_seconds_bucket{phase="run",le="5"} 2
x_seconds_bucket{phase="run",le="+Inf"} 3
x_seconds_sum{phase="run"} 53.5
x_seconds_count{phase="run"} 3
`
	if b.String() != want {
		t.Fatalf("render:\n%s\nwant:\n%s", b.String(), want)
	}

	// Byte stability: rendering the same snapshot twice is identical.
	var b2 strings.Builder
	h.Snapshot().WritePrometheus(&b2, xSeconds, `phase="run"`)
	if b.String() != b2.String() {
		t.Fatal("histogram rendering is not byte-stable")
	}
}

func TestValidateExpositionAcceptsWellFormed(t *testing.T) {
	good := `# HELP kagura_jobs_total Jobs.
# TYPE kagura_jobs_total counter
kagura_jobs_total{status="run"} 3
# HELP kagura_queue_depth Depth.
# TYPE kagura_queue_depth gauge
kagura_queue_depth 0
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{phase="run",le="1"} 1
x_seconds_bucket{phase="run",le="+Inf"} 3
x_seconds_sum{phase="run"} 53.5
x_seconds_count{phase="run"} 3
`
	if err := ValidateExposition(good); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "kagura_x 1\n",
		"bad value":          "# TYPE x counter\nx one\n",
		"bad name":           "# TYPE x counter\nx{a=\"b\"} 1\n9bad 2\n",
		"unterminated label": "# TYPE x counter\nx{a=\"b 1\n",
		"duplicate TYPE":     "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"bucket no le":       "# TYPE h histogram\nh_bucket{a=\"b\"} 1\n",
		"no inf bucket":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"cumulative decrease": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, text := range cases {
		if err := ValidateExposition(text); err == nil {
			t.Errorf("%s: malformed exposition accepted:\n%s", name, text)
		}
	}
}
