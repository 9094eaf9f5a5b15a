// Package campaign is the declarative sweep engine: a validated JSON spec
// names parameter axes over the simulation knobs (RunSpec fields), a search
// strategy picks which points of the induced space to simulate, and the
// engine executes them as fork-batches against simsvc, streaming results
// into a deterministic report with Pareto-frontier extraction and byte-stable
// JSON/CSV export (DESIGN.md §13).
//
// Every result in the paper is a sweep; this package is the layer that turns
// the point-query service into a design-space-exploration tool. The
// determinism contract matches the rest of the tree: same spec + seed ⇒
// byte-identical report, regardless of worker count or interleaving.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"kagura/internal/faultinject"
	"kagura/internal/simsvc"
)

// Decode hardening bounds. A campaign spec arrives over the wire (POST
// /v1/campaigns) and from operator files (kagura-campaign -spec), so the
// decoder bounds every dimension before allocating: axes, values per axis,
// and the total induced point count.
const (
	// MaxSpecBytes bounds the encoded spec (same budget as request bodies).
	MaxSpecBytes = 1 << 20
	// MaxAxes bounds the sweep dimensionality.
	MaxAxes = 6
	// MaxAxisValues bounds one axis's value list.
	MaxAxisValues = 64
	// MaxPoints bounds the induced point space (cross-product or star sum).
	MaxPoints = 4096
	// MaxValueBytes bounds one encoded axis value (an inline workload is the
	// largest legitimate value).
	MaxValueBytes = 1 << 16
)

// Axis is one named sweep dimension: a RunSpec parameter and the values it
// takes. Values stay raw JSON until applied, so one schema covers numeric,
// string, and boolean knobs.
type Axis struct {
	// Param names the RunSpec knob this axis varies (see ParamNames).
	Param string `json:"param"`
	// Values are the settings to sweep, in axis order.
	Values []json.RawMessage `json:"values"`
}

// Objective names the scalar metric a search optimizes toward.
type Objective struct {
	// Metric is "energy" (total joules), "progress" (committed instructions
	// per simulated second), or "execSeconds". Default "energy".
	Metric string `json:"metric,omitempty"`
	// Goal is "min" or "max"; empty selects the metric's natural goal
	// (energy/execSeconds minimize, progress maximizes).
	Goal string `json:"goal,omitempty"`
}

// Spec is the declarative description of one campaign.
type Spec struct {
	// Name labels the campaign in reports and status listings.
	Name string `json:"name,omitempty"`
	// Seed drives every stochastic choice the engine makes (random sampling);
	// 0 selects 1. Same spec + seed ⇒ byte-identical report.
	Seed uint64 `json:"seed,omitempty"`
	// Base is the run every point starts from; axis values overwrite its
	// fields.
	Base simsvc.RunSpec `json:"base"`
	// Baseline, when set, is simulated once and every point's speedup and
	// energy reduction are reported against it.
	Baseline *simsvc.RunSpec `json:"baseline,omitempty"`
	// Axes are the sweep dimensions, in report order.
	Axes []Axis `json:"axes"`
	// Mode is "cross" (full cartesian product, the default) or "star" (one
	// axis varied at a time, the others left at Base).
	Mode string `json:"mode,omitempty"`
	// Strategy is "grid" (exhaustive, the default), "random" (seeded sample
	// of Samples points), or "halving" (adaptive lattice refinement toward
	// Objective; cross mode only).
	Strategy string `json:"strategy,omitempty"`
	// Samples sizes the random strategy's sample (clamped to the space).
	Samples int `json:"samples,omitempty"`
	// Objective directs the halving strategy and names the report's best
	// point under any strategy.
	Objective Objective `json:"objective,omitempty"`
	// ForkPoint, when set, warm-starts every batch from the base spec's
	// state at the given cycle (approximate results; see DESIGN.md §9).
	ForkPoint *simsvc.ForkPoint `json:"forkPoint,omitempty"`
	// BatchSize chunks each wave's submissions (default 64).
	BatchSize int `json:"batchSize,omitempty"`
}

// Strategy and mode names.
const (
	StrategyGrid    = "grid"
	StrategyRandom  = "random"
	StrategyHalving = "halving"

	ModeCross = "cross"
	ModeStar  = "star"
)

// paramSetter applies one decoded axis value to a spec. Each setter decodes
// strictly: a value of the wrong JSON type is a validation error, not a
// coercion.
type paramSetter func(*simsvc.RunSpec, json.RawMessage) error

// strictUnmarshal decodes exactly one JSON value of v's type, rejecting
// trailing garbage.
func strictUnmarshal(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after value")
	}
	return nil
}

// paramTable maps axis parameter names to setters. Lookups only — never
// iterated — so map order can't leak anywhere.
var paramTable = map[string]paramSetter{
	"app": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.App)
	},
	"scale": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Scale)
	},
	"trace": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Trace)
	},
	"seed": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Seed)
	},
	"codec": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Codec)
	},
	"acc": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.ACC)
	},
	"kagura": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Kagura)
	},
	"policy": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Policy)
	},
	"trigger": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Trigger)
	},
	"increaseStep": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.IncreaseStep)
	},
	"counterBits": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.CounterBits)
	},
	"design": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Design)
	},
	"decayInterval": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.DecayInterval)
	},
	"prefetch": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.Prefetch)
	},
	"maxSimSeconds": func(sp *simsvc.RunSpec, raw json.RawMessage) error {
		return strictUnmarshal(raw, &sp.MaxSimSeconds)
	},
}

// ParamNames lists the sweepable RunSpec knobs, sorted.
func ParamNames() []string {
	names := make([]string, 0, len(paramTable))
	for name := range paramTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DecodeSpec reads, decodes, and validates a campaign spec from r. The
// reader is bounded at MaxSpecBytes, unknown fields are rejected, every axis
// value must decode into its parameter's type and the base spec must itself
// normalize. The returned spec has defaults applied (seed, mode, strategy,
// batch size).
func DecodeSpec(r io.Reader) (*Spec, error) {
	if err := faultinject.CampaignDecode.FireErr(); err != nil {
		return nil, err
	}
	blob, err := io.ReadAll(io.LimitReader(r, MaxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("campaign: reading spec: %w", err)
	}
	if len(blob) > MaxSpecBytes {
		return nil, fmt.Errorf("campaign: spec exceeds %d bytes", MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("campaign: decoding spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: trailing data after spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec in place and applies defaults. It is idempotent:
// validating an already-validated spec changes nothing.
func (s *Spec) Validate() error {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if len(s.Name) > 128 {
		return fmt.Errorf("campaign: name exceeds 128 bytes")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Mode {
	case "":
		s.Mode = ModeCross
	case ModeCross, ModeStar:
	default:
		return fmt.Errorf("campaign: unknown mode %q (cross or star)", s.Mode)
	}
	switch s.Strategy {
	case "":
		s.Strategy = StrategyGrid
	case StrategyGrid, StrategyRandom:
	case StrategyHalving:
		if s.Mode != ModeCross {
			return fmt.Errorf("campaign: halving requires cross mode")
		}
	default:
		return fmt.Errorf("campaign: unknown strategy %q (grid, random, or halving)", s.Strategy)
	}
	if err := s.Objective.validate(); err != nil {
		return err
	}
	if s.BatchSize == 0 {
		s.BatchSize = 64
	}
	if s.BatchSize < 1 || s.BatchSize > MaxPoints {
		return fmt.Errorf("campaign: batch size %d outside 1..%d", s.BatchSize, MaxPoints)
	}
	if s.ForkPoint != nil {
		if s.ForkPoint.Cycles < 0 {
			return fmt.Errorf("campaign: negative forkPoint cycles %d", s.ForkPoint.Cycles)
		}
		if s.ForkPoint.Base == nil {
			// Pin the fork base to the campaign base: simsvc would otherwise
			// default to each batch's first job, which varies with chunking.
			base := s.Base
			s.ForkPoint.Base = &base
		}
	}

	if len(s.Axes) == 0 {
		return fmt.Errorf("campaign: spec needs at least one axis")
	}
	if len(s.Axes) > MaxAxes {
		return fmt.Errorf("campaign: %d axes exceed the limit of %d", len(s.Axes), MaxAxes)
	}
	seen := make(map[string]bool, len(s.Axes))
	for i, ax := range s.Axes {
		if _, ok := paramTable[ax.Param]; !ok {
			return fmt.Errorf("campaign: axis %d: unknown parameter %q (known: %s)",
				i, ax.Param, strings.Join(ParamNames(), ", "))
		}
		if seen[ax.Param] {
			return fmt.Errorf("campaign: duplicate axis for parameter %q", ax.Param)
		}
		seen[ax.Param] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("campaign: axis %q has no values", ax.Param)
		}
		if len(ax.Values) > MaxAxisValues {
			return fmt.Errorf("campaign: axis %q has %d values, limit %d",
				ax.Param, len(ax.Values), MaxAxisValues)
		}
		for j, v := range ax.Values {
			if len(v) > MaxValueBytes {
				return fmt.Errorf("campaign: axis %q value %d exceeds %d bytes",
					ax.Param, j, MaxValueBytes)
			}
			probe := s.Base
			if err := paramTable[ax.Param](&probe, v); err != nil {
				return fmt.Errorf("campaign: axis %q value %d: %w", ax.Param, j, err)
			}
		}
	}

	space := newSpace(s)
	if space.total() > MaxPoints {
		return fmt.Errorf("campaign: %d induced points exceed the limit of %d",
			space.total(), MaxPoints)
	}
	switch s.Strategy {
	case StrategyRandom:
		if s.Samples < 1 {
			return fmt.Errorf("campaign: random strategy needs samples >= 1")
		}
		if s.Samples > space.total() {
			s.Samples = space.total()
		}
	default:
		if s.Samples != 0 {
			return fmt.Errorf("campaign: samples only applies to the random strategy")
		}
	}

	if _, err := s.Base.Normalize(); err != nil {
		return fmt.Errorf("campaign: base: %w", err)
	}
	if s.Baseline != nil {
		if _, err := s.Baseline.Normalize(); err != nil {
			return fmt.Errorf("campaign: baseline: %w", err)
		}
	}
	return nil
}

func (o *Objective) validate() error {
	switch o.Metric {
	case "":
		o.Metric = MetricEnergy
	case MetricEnergy, MetricProgress, MetricExecSeconds:
	default:
		return fmt.Errorf("campaign: unknown objective metric %q (energy, progress, or execSeconds)", o.Metric)
	}
	switch o.Goal {
	case "":
		if o.Metric == MetricProgress {
			o.Goal = GoalMax
		} else {
			o.Goal = GoalMin
		}
	case GoalMin, GoalMax:
	default:
		return fmt.Errorf("campaign: unknown objective goal %q (min or max)", o.Goal)
	}
	return nil
}

// Objective metrics and goals.
const (
	MetricEnergy      = "energy"
	MetricProgress    = "progress"
	MetricExecSeconds = "execSeconds"

	GoalMin = "min"
	GoalMax = "max"
)

// space is the induced point set: every assignment of axis values the spec
// describes, indexed densely in a canonical order.
//
//   - cross: the cartesian product, row-major with the LAST axis varying
//     fastest (index = ((c0·n1)+c1)·n2 + …).
//   - star: Base varied one axis at a time — axis 0's values first, then
//     axis 1's, and so on.
type space struct {
	spec *Spec
	mode string
	dims []int
	// starIdx maps a star point index to (axis, value) coordinates.
	starIdx [][2]int
}

func newSpace(s *Spec) *space {
	sp := &space{spec: s, mode: s.Mode}
	if s.Mode == ModeStar {
		for a, ax := range s.Axes {
			for v := range ax.Values {
				sp.starIdx = append(sp.starIdx, [2]int{a, v})
			}
		}
		return sp
	}
	sp.mode = ModeCross
	for _, ax := range s.Axes {
		sp.dims = append(sp.dims, len(ax.Values))
	}
	return sp
}

func (sp *space) total() int {
	if sp.mode == ModeStar {
		return len(sp.starIdx)
	}
	total := 1
	for _, d := range sp.dims {
		total *= d
		if total > MaxPoints {
			return total // caller rejects; avoid overflow on absurd specs
		}
	}
	return total
}

// coords decomposes a cross-mode index into per-axis value coordinates.
func (sp *space) coords(i int) []int {
	c := make([]int, len(sp.dims))
	for a := len(sp.dims) - 1; a >= 0; a-- {
		c[a] = i % sp.dims[a]
		i /= sp.dims[a]
	}
	return c
}

// index recomposes cross-mode coordinates into a point index.
func (sp *space) index(c []int) int {
	i := 0
	for a, v := range c {
		i = i*sp.dims[a] + v
	}
	return i
}

// ParamValue is one applied axis assignment, kept raw for byte-stable
// re-rendering.
type ParamValue struct {
	Param string          `json:"param"`
	Value json.RawMessage `json:"value"`
}

// params returns point i's axis assignments in axis order (star points carry
// only their varied axis).
func (sp *space) params(i int) []ParamValue {
	if sp.mode == ModeStar {
		av := sp.starIdx[i]
		ax := sp.spec.Axes[av[0]]
		return []ParamValue{{Param: ax.Param, Value: ax.Values[av[1]]}}
	}
	c := sp.coords(i)
	out := make([]ParamValue, len(c))
	for a, v := range c {
		out[a] = ParamValue{Param: sp.spec.Axes[a].Param, Value: sp.spec.Axes[a].Values[v]}
	}
	return out
}

// runSpec materializes point i: Base with the point's assignments applied.
func (sp *space) runSpec(i int) (simsvc.RunSpec, error) {
	out := sp.spec.Base
	for _, pv := range sp.params(i) {
		if err := paramTable[pv.Param](&out, pv.Value); err != nil {
			return out, fmt.Errorf("campaign: point %d: %w", i, err)
		}
	}
	return out, nil
}
