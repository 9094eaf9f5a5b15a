package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket histogram: observation counts per upper bound
// plus a running sum. Buckets are fixed at construction — never adaptive —
// so two snapshots of the same state render byte-identically and series
// stay comparable across process restarts (DESIGN.md §11).
//
// Histogram itself is NOT synchronized: the owner serializes Observe and
// Snapshot (simsvc guards its histograms with the service mutex, which it
// already holds at every observation site).
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1; counts[len(bounds)] is the +Inf bucket
	count  uint64
	sum    float64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// The bounds are copied and sorted defensively; an implicit +Inf bucket is
// always present, so NewHistogram() is a valid count/sum-only histogram.
func NewHistogram(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Snapshot returns a deep copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram, in per-bucket
// (non-cumulative) form.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds (+Inf implied).
	Bounds []float64 `json:"bounds,omitempty"`
	// Counts holds one entry per bound plus the +Inf overflow bucket.
	Counts []uint64 `json:"counts,omitempty"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
}

// WritePrometheus renders the snapshot as samples of histogram family f:
// cumulative <name>_bucket lines with le labels, then <name>_sum and
// <name>_count. labels is either empty or a rendered label list such as
// `phase="queue"` that is merged before the le label. The caller emits the
// family's header (once, even when several label sets share it).
func (s HistogramSnapshot) WritePrometheus(b *strings.Builder, f *Family, labels string) {
	name := f.name
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, bound := range s.Bounds {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
		fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, s.Sum)
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, s.Count)
	}
}

// formatBound renders a bucket bound the way Prometheus clients do: shortest
// round-trip representation, stable for the fixed bounds used here.
func formatBound(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}
