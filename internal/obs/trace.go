// Package obs holds the observability primitives the serving stack is
// instrumented with: per-job phase traces, fixed-bucket histograms, and a
// Prometheus text-exposition validator.
//
// The package is deliberately clock-free: every timestamp is passed in by the
// caller, and nothing here reads the host clock, spawns goroutines, or draws
// randomness. That keeps obs inside the simdeterminism lint's core-package
// set — the service layer (simsvc, cmd/…) owns all wall-clock reads, and obs
// only does arithmetic on the times it is handed. The same property makes
// every rendering byte-stable: the same snapshot always formats to the same
// bytes (DESIGN.md §11).
package obs

import (
	"context"
	"sync"
	"time"
)

// The phase vocabulary of a job trace. One span per contiguous stretch of a
// job's life; phases never overlap, so the span durations sum to the job's
// wall time.
const (
	// PhaseQueued: submitted and waiting for a worker.
	PhaseQueued = "queued"
	// PhaseCoalesced: riding along on an identical in-flight job.
	PhaseCoalesced = "coalesced"
	// PhaseCached: resolved instantly from the result cache.
	PhaseCached = "cached"
	// PhaseWarmStart: computing or waiting for a warm-start snapshot.
	PhaseWarmStart = "warmstart"
	// PhaseStore: probing the persistent on-disk store before computing.
	PhaseStore = "store"
	// PhaseCompute: executing the simulation.
	PhaseCompute = "compute"
)

// Span is one closed phase interval of a job trace, in seconds relative to
// the trace origin (the job's creation).
type Span struct {
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// StartSeconds is the span's offset from the trace origin.
	StartSeconds float64 `json:"startSeconds"`
	// Seconds is the span's duration.
	Seconds float64 `json:"seconds"`
}

// span is the internal representation: absolute times, converted to offsets
// only when snapshotted.
type span struct {
	phase      string
	start, end time.Time
}

// Trace records the phase timeline of one job. Begin/End/Spans are safe for
// concurrent use; a nil *Trace is a valid no-op receiver, so instrumentation
// sites never need nil checks. Spans are contiguous by construction — Begin
// closes the open span at the same instant it opens the next — so the sum of
// span durations equals last-end minus origin exactly. End is final: a
// computation still running for other jobs after this one settled cannot
// reopen its trace.
type Trace struct {
	mu     sync.Mutex
	origin time.Time
	closed []span
	open   bool
	ended  bool
	cur    span
}

// NewTrace starts an empty trace with the given origin (the job's creation
// time). No span is open until the first Begin.
func NewTrace(origin time.Time) *Trace {
	return &Trace{origin: origin}
}

// Begin closes the open span (if any) at now and opens a new one in the
// given phase. It does nothing once the trace has ended.
func (t *Trace) Begin(phase string, now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		return
	}
	if t.open {
		t.cur.end = now
		t.closed = append(t.closed, t.cur)
	}
	t.cur = span{phase: phase, start: now}
	t.open = true
}

// End closes the open span at now and ends the trace: later Begins are
// ignored. A trace with no open span keeps its spans.
func (t *Trace) End(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.open {
		t.cur.end = now
		t.closed = append(t.closed, t.cur)
		t.open = false
	}
	t.ended = true
	t.mu.Unlock()
}

// Spans returns the trace as wire-level spans. An open span is reported as
// running through now without being closed, so snapshots of a live job see
// its current phase with an up-to-date duration.
func (t *Trace) Spans(now time.Time) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.closed)+1)
	for _, s := range t.closed {
		out = append(out, t.wire(s))
	}
	if t.open {
		s := t.cur
		s.end = now
		out = append(out, t.wire(s))
	}
	return out
}

func (t *Trace) wire(s span) Span {
	return Span{
		Phase:        s.phase,
		StartSeconds: s.start.Sub(t.origin).Seconds(),
		Seconds:      s.end.Sub(s.start).Seconds(),
	}
}

// traceKey carries a *Trace through a context.
type traceKey struct{}

// WithTrace returns a context carrying t, so instrumentation deep inside a
// compute path (warm-start snapshots) can extend the job's trace without
// threading it through every signature.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil (a valid no-op Trace) when
// none is attached.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
