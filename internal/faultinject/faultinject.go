// Package faultinject is a deterministic, seeded fault-injection framework
// for the serving stack: named injection points compiled into production code
// paths that are near-zero-cost no-ops until a Plan arms them.
//
// Determinism is the point. A chaos run is only useful if a failure it finds
// can be replayed, so every injection decision is a pure function of
// (plan seed, point name, rule index, occurrence number) — independent of
// goroutine interleaving, wall-clock time, and host. Two runs of the same
// plan against the same workload inject the same faults at the same
// occurrences, even though the *jobs* hitting each occurrence may differ
// run-to-run under concurrency.
//
// Points are typed values declared once, in registry.go:
//
//	func work(ctx context.Context) error {
//		if err := faultinject.SimsvcCompute.Fire(ctx); err != nil {
//			return err // injected fault
//		}
//		...
//	}
//
// A call site cannot name a point the registry does not declare, and Enable
// rejects a plan whose rule targets an unknown name, so a misspelled point
// fails at startup instead of silently injecting nothing.
//
// When no plan is enabled, Fire is a single atomic load and a nil return:
// cheap enough to leave in the hot path permanently (the warm-start sweep
// benchmark holds it to <2% overhead).
//
// The fault kinds:
//
//   - KindError: Fire returns an *InjectedError, which the service
//     classifies as fault_injected; the job or request fails at once.
//   - KindPanic: Fire panics with a PanicValue — exercises recover paths.
//   - KindLatency: Fire blocks for the rule's duration or until ctx is
//     canceled — exercises timeout, cancellation, and eviction races.
//   - KindCorrupt: Fire is a no-op; the point's CorruptBytes method
//     deterministically flips bits in data it is given — exercises decode
//     hardening and checkpoint degradation.
//
// Trigger selection per rule is exactly one of Probability (seeded coin per
// occurrence), Nth (the single k-th occurrence), or Every (every k-th),
// optionally bounded by Limit total injections.
package faultinject

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kagura/internal/rng"
)

// Kind is a fault category.
type Kind string

// Fault kinds.
const (
	// KindError makes Fire return an *InjectedError.
	KindError Kind = "error"
	// KindPanic makes Fire panic with a PanicValue.
	KindPanic Kind = "panic"
	// KindLatency makes Fire block for LatencyMicros (or until ctx cancels).
	KindLatency Kind = "latency"
	// KindCorrupt arms CorruptBytes at the point; Fire itself stays a no-op.
	KindCorrupt Kind = "corrupt"
)

// Rule arms one fault at one injection point. Exactly one trigger must be
// set: Probability (0,1], Nth ≥ 1, or Every ≥ 1.
type Rule struct {
	// Point names the injection point the rule arms (e.g. "simsvc.compute").
	Point string `json:"point"`
	// Kind selects the fault to inject.
	Kind Kind `json:"kind"`
	// Probability triggers the fault on each occurrence with this chance,
	// decided by a seeded coin that depends only on the occurrence number.
	Probability float64 `json:"probability,omitempty"`
	// Nth triggers the fault on exactly the Nth occurrence (1-based).
	Nth int64 `json:"nth,omitempty"`
	// Every triggers the fault on every Every-th occurrence (1 = always).
	Every int64 `json:"every,omitempty"`
	// Limit bounds the total injections from this rule (0 = unbounded).
	Limit int64 `json:"limit,omitempty"`
	// LatencyMicros is the injected delay for KindLatency (required > 0).
	LatencyMicros int64 `json:"latencyMicros,omitempty"`
	// Message is an optional tag carried in the injected error/panic value.
	Message string `json:"message,omitempty"`
}

// Plan is a complete fault schedule: a seed plus the rules it arms. The seed
// fixes every probabilistic decision and every corruption pattern, so a plan
// replays identically.
type Plan struct {
	Seed  uint64 `json:"seed"`
	Rules []Rule `json:"rules"`
}

// InjectedError is the error returned by an armed KindError rule.
type InjectedError struct {
	// Point is the injection point that fired.
	Point string
	// Occurrence is the 1-based occurrence number that triggered.
	Occurrence int64
	// Message is the rule's tag, if any.
	Message string
}

func (e *InjectedError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("faultinject: %s (occurrence %d): %s", e.Point, e.Occurrence, e.Message)
	}
	return fmt.Sprintf("faultinject: injected error at %s (occurrence %d)", e.Point, e.Occurrence)
}

// PanicValue is the value an armed KindPanic rule panics with, so recover
// sites can distinguish injected panics from real ones in assertions.
type PanicValue struct {
	Point      string
	Occurrence int64
	Message    string
}

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (occurrence %d) %s", p.Point, p.Occurrence, p.Message)
}

// armedRule is a validated rule bound to its deterministic decision stream.
type armedRule struct {
	rule Rule
	// salt seeds the per-occurrence decision; derived from the plan seed, the
	// point name, and the rule's index, so streams are independent per rule.
	salt uint64
	// injected counts how many times this rule has fired (Limit accounting).
	injected atomic.Int64
}

// PointID is one named injection point, declared in the registry. The
// handle is process-global and safe for concurrent use.
type PointID struct {
	name string
	// armed holds the rules currently targeting this point; nil when
	// injection is disabled — the fast path is one atomic pointer load.
	armed atomic.Pointer[[]*armedRule]
	// n counts occurrences (Fire/FireErr/CorruptBytes calls) since Enable.
	n atomic.Int64
	// fired counts injections actually applied at this point since Enable.
	fired atomic.Int64
}

// regMu serializes Enable and Disable; enabled mirrors whether any rule is
// armed.
var (
	regMu   sync.Mutex
	enabled atomic.Bool
)

// Points returns every declared injection point, sorted by name — the
// catalog a chaos plan can target.
func Points() []*PointID {
	out := make([]*PointID, 0, len(points))
	for _, p := range points {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Enable validates the plan and arms its rules, replacing any previously
// enabled plan. Occurrence counters reset, so the schedule starts fresh.
func Enable(p Plan) error {
	armed := map[string][]*armedRule{}
	for i, r := range p.Rules {
		if err := validateRule(r); err != nil {
			return fmt.Errorf("faultinject: rule %d: %w", i, err)
		}
		if points[r.Point] == nil {
			return fmt.Errorf("faultinject: rule %d: unknown point %q", i, r.Point)
		}
		armed[r.Point] = append(armed[r.Point], &armedRule{
			rule: r,
			salt: ruleSalt(p.Seed, r.Point, i),
		})
	}
	regMu.Lock()
	defer regMu.Unlock()
	for name, pt := range points {
		pt.n.Store(0)
		pt.fired.Store(0)
		if rules := armed[name]; len(rules) > 0 {
			rs := rules
			pt.armed.Store(&rs)
		} else {
			pt.armed.Store(nil)
		}
	}
	enabled.Store(len(p.Rules) > 0)
	return nil
}

// Disable disarms every injection point. Fire returns to its no-op fast path.
func Disable() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, pt := range points {
		pt.armed.Store(nil)
		pt.n.Store(0)
		pt.fired.Store(0)
	}
	enabled.Store(false)
}

// Enabled reports whether a plan with at least one rule is armed.
func Enabled() bool { return enabled.Load() }

// Fires returns how many faults have been injected at the point since the
// last Enable — the soak test's proof that chaos actually happened.
func (p *PointID) Fires() int64 { return p.fired.Load() }

func validateRule(r Rule) error {
	if r.Point == "" {
		return fmt.Errorf("empty point name")
	}
	switch r.Kind {
	case KindError, KindPanic, KindLatency, KindCorrupt:
	default:
		return fmt.Errorf("unknown kind %q", r.Kind)
	}
	triggers := 0
	// Zero is the "field unset" sentinel, not an arithmetic result: exactness
	// is the point.
	if r.Probability != 0 { //kagura:allow floateq unset-field sentinel check, not accumulated-float comparison
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("probability %g outside (0, 1]", r.Probability)
		}
		triggers++
	}
	if r.Nth != 0 {
		if r.Nth < 0 {
			return fmt.Errorf("negative nth %d", r.Nth)
		}
		triggers++
	}
	if r.Every != 0 {
		if r.Every < 0 {
			return fmt.Errorf("negative every %d", r.Every)
		}
		triggers++
	}
	if triggers != 1 {
		return fmt.Errorf("exactly one of probability, nth, every must be set (got %d)", triggers)
	}
	if r.Limit < 0 {
		return fmt.Errorf("negative limit %d", r.Limit)
	}
	if r.Kind == KindLatency && r.LatencyMicros <= 0 {
		return fmt.Errorf("latency rule needs latencyMicros > 0")
	}
	return nil
}

// ruleSalt derives the per-rule decision seed: FNV-1a over the point name,
// mixed with the plan seed and the rule index.
func ruleSalt(seed uint64, point string, idx int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= fnvPrime
	}
	return h ^ (seed * 0x9e3779b97f4a7c15) ^ (uint64(idx+1) * 0xd1b54a32d192ed03)
}

// decide reports whether rule ar triggers at occurrence k (1-based). Pure in
// (salt, k): concurrent callers racing to different occurrence numbers still
// replay the same schedule across runs.
func (ar *armedRule) decide(k int64) bool {
	r := &ar.rule
	switch {
	case r.Nth > 0:
		return k == r.Nth
	case r.Every > 0:
		return k%r.Every == 0
	default:
		// One fresh generator per (rule, occurrence): the draw depends only on
		// the salt and k, never on how many draws other goroutines made.
		return rng.New(ar.salt^(uint64(k)*0x9e3779b97f4a7c15)).Float64() < r.Probability
	}
}

// take claims an injection slot against the rule's Limit; reports whether
// the injection may proceed.
func (ar *armedRule) take() bool {
	if ar.rule.Limit <= 0 {
		ar.injected.Add(1)
		return true
	}
	if ar.injected.Add(1) > ar.rule.Limit {
		ar.injected.Add(-1)
		return false
	}
	return true
}

// Name returns the point's registered name.
func (p *PointID) Name() string { return p.name }

// Fire evaluates the point's armed rules at the next occurrence. Disabled
// (the common case) it is a single atomic load returning nil. Armed, it may
// return an *InjectedError, panic with a PanicValue, or block for an
// injected latency (honoring ctx, returning ctx.Err() on cancellation).
//
// Fire may block or panic; never call it with locks held — use FireErr at
// under-lock sites.
func (p *PointID) Fire(ctx context.Context) error {
	rules := p.armed.Load()
	if rules == nil {
		return nil
	}
	return p.fireSlow(ctx, *rules, false)
}

// FireErr is the lock-safe variant of Fire: it evaluates only KindError
// rules — never blocking, never panicking — so it can instrument critical
// sections guarded by a mutex.
func (p *PointID) FireErr() error {
	rules := p.armed.Load()
	if rules == nil {
		return nil
	}
	return p.fireSlow(context.Background(), *rules, true)
}

func (p *PointID) fireSlow(ctx context.Context, rules []*armedRule, errOnly bool) error {
	k := p.n.Add(1)
	for _, ar := range rules {
		if errOnly && ar.rule.Kind != KindError {
			continue
		}
		if ar.rule.Kind == KindCorrupt || !ar.decide(k) || !ar.take() {
			continue
		}
		p.fired.Add(1)
		switch ar.rule.Kind {
		case KindError:
			return &InjectedError{Point: p.name, Occurrence: k, Message: ar.rule.Message}
		case KindPanic:
			panic(PanicValue{Point: p.name, Occurrence: k, Message: ar.rule.Message})
		case KindLatency:
			d := time.Duration(ar.rule.LatencyMicros) * time.Microsecond
			t := time.NewTimer(d) //kagura:allow time injected latency is test-only chaos, armed by an explicit plan, never in a fault-free run
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return nil
}

// CorruptBytes applies any armed KindCorrupt rule at this point to data:
// when the rule triggers at the next occurrence, it returns a corrupted copy
// (deterministic seeded bit flips — the same plan corrupts the same bytes
// the same way); otherwise it returns data unchanged. The input is never
// modified.
func (p *PointID) CorruptBytes(data []byte) []byte {
	rules := p.armed.Load()
	if rules == nil {
		return data
	}
	k := p.n.Add(1)
	for _, ar := range *rules {
		if ar.rule.Kind != KindCorrupt || !ar.decide(k) || !ar.take() {
			continue
		}
		p.fired.Add(1)
		if len(data) == 0 {
			return data
		}
		out := append([]byte(nil), data...)
		src := rng.New(ar.salt ^ (uint64(k) * 0x9e3779b97f4a7c15))
		// Flip 1–8 bits at seeded positions: enough to break magic numbers,
		// length prefixes, or payload bytes, wherever they land.
		flips := 1 + src.Intn(8)
		for i := 0; i < flips; i++ {
			pos := src.Intn(len(out))
			out[pos] ^= byte(1 << src.Intn(8))
		}
		return out
	}
	return data
}
