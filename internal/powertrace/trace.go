// Package powertrace models ambient harvested-power traces for energy
// harvesting systems.
//
// Following the paper's methodology (§VIII), a trace is a sequence of
// average-power samples, one per 10µs interval: P_avg = E_10µs / 10µs. The
// simulator replays a trace to charge the capacitor, guaranteeing every
// configuration sees exactly the same energy input.
//
// The paper uses real traces (RFHome from NVPsim, plus solar and thermal
// sources). Those recordings are not redistributable, so this package
// provides synthetic generators calibrated to the two statistics that matter
// for the evaluation — mean harvested power (duty cycle) and burstiness
// (power-cycle-length variance) — plus text-file I/O in the paper's format so
// real traces can be substituted when available.
package powertrace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"kagura/internal/rng"
)

// IntervalSeconds is the duration covered by one trace sample: 10µs.
const IntervalSeconds = 10e-6

// Trace is an ambient power trace: Samples[i] is the average harvested power
// in watts over the i-th 10µs interval. Traces repeat cyclically when a
// simulation outlives them.
type Trace struct {
	// Name identifies the ambient source (e.g. "RFHome").
	Name string
	// Samples holds average power per interval, in watts.
	Samples []float64
}

// Power returns the harvested power during the interval containing the given
// absolute interval index. The trace wraps around when exhausted.
func (t *Trace) Power(interval int64) float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	i := interval % int64(len(t.Samples))
	if i < 0 {
		i += int64(len(t.Samples))
	}
	return t.Samples[i]
}

// Duration returns the trace length in seconds (before wrapping).
func (t *Trace) Duration() float64 {
	return float64(len(t.Samples)) * IntervalSeconds
}

// Stats summarizes a trace for Fig 11-style reporting.
type Stats struct {
	MeanWatts   float64 // average power
	PeakWatts   float64 // maximum sample
	MinWatts    float64 // minimum sample
	StdDevWatts float64 // sample standard deviation
	// StableShare is the fraction of samples within ±50% of the mean — the
	// paper's notion that solar/thermal have "relatively higher portions of
	// stable energy" while RFHome has less.
	StableShare float64
	// ZeroShare is the fraction of samples that harvest (almost) nothing.
	ZeroShare float64
	// P10/P50/P90 are sample power percentiles.
	P10, P50, P90 float64
}

// Summarize computes summary statistics of the trace.
func (t *Trace) Summarize() Stats {
	var s Stats
	if len(t.Samples) == 0 {
		return s
	}
	s.MinWatts = math.Inf(1)
	var sum, sumSq float64
	for _, p := range t.Samples {
		sum += p
		sumSq += p * p
		if p > s.PeakWatts {
			s.PeakWatts = p
		}
		if p < s.MinWatts {
			s.MinWatts = p
		}
	}
	n := float64(len(t.Samples))
	s.MeanWatts = sum / n
	variance := sumSq/n - s.MeanWatts*s.MeanWatts
	if variance > 0 {
		s.StdDevWatts = math.Sqrt(variance)
	}
	stable, zero := 0, 0
	for _, p := range t.Samples {
		if p >= 0.5*s.MeanWatts && p <= 1.5*s.MeanWatts {
			stable++
		}
		if p < 0.01*s.MeanWatts {
			zero++
		}
	}
	s.StableShare = float64(stable) / n
	s.ZeroShare = float64(zero) / n

	sorted := append([]float64(nil), t.Samples...)
	sort.Float64s(sorted)
	pct := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	s.P10, s.P50, s.P90 = pct(0.10), pct(0.50), pct(0.90)
	return s
}

// Write serializes the trace in the paper's text format: one average-power
// value (watts) per line. A header comment records the name and interval.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %s interval_us 10\n", t.Name); err != nil {
		return err
	}
	for _, p := range t.Samples {
		if _, err := bw.WriteString(strconv.FormatFloat(p, 'g', -1, 64)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace in the text format produced by Write. Lines beginning
// with '#' are comments; the first comment of the form "# trace NAME ..."
// sets the trace name.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	t := &Trace{Name: "unnamed"}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) >= 2 && fields[0] == "trace" {
				t.Name = fields[1]
			}
			continue
		}
		p, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("powertrace: line %d: %v", line, err)
		}
		if p < 0 {
			return nil, fmt.Errorf("powertrace: line %d: negative power %v", line, p)
		}
		t.Samples = append(t.Samples, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("powertrace: %v", err)
	}
	if len(t.Samples) == 0 {
		return nil, fmt.Errorf("powertrace: empty trace")
	}
	return t, nil
}

// Scale returns a copy of the trace with every sample multiplied by factor.
// Useful for sensitivity studies on harvest strength.
func (t *Trace) Scale(factor float64) *Trace {
	out := &Trace{Name: t.Name, Samples: make([]float64, len(t.Samples))}
	for i, p := range t.Samples {
		out.Samples[i] = p * factor
	}
	return out
}

// synthParams configures the generic synthetic generator shared by the three
// named sources.
type synthParams struct {
	meanWatts float64 // long-run average power
	// burstiness in [0,1]: 0 = perfectly smooth, 1 = heavily on/off.
	burstiness float64
	// onProb is the per-interval probability of being in a harvesting burst
	// when bursty; burst lengths are geometric.
	onProb float64
	// burstHold is the expected burst/idle run length in intervals.
	burstHold int
	// driftPeriod is the period (in intervals) of the slow sinusoidal drift
	// (diurnal-like component); 0 disables drift.
	driftPeriod int
	driftDepth  float64 // relative amplitude of the drift component
	noise       float64 // relative white-noise amplitude
}

// generate produces n samples from the parameter set.
func generate(name string, n int, seed uint64, p synthParams) *Trace {
	r := rng.New(seed)
	t := &Trace{Name: name, Samples: make([]float64, n)}

	// Two-state (burst/idle) modulation: choose level so the long-run mean
	// matches meanWatts given the duty cycle onProb.
	on := r.Float64() < p.onProb
	hold := 0
	burstLevel := p.meanWatts / math.Max(p.onProb, 1e-9)

	for i := 0; i < n; i++ {
		if hold <= 0 {
			// Flip state with probability matching the target duty cycle so
			// the run-length process stays near onProb on-share.
			if on {
				on = r.Float64() < p.onProb
			} else {
				on = r.Float64() < p.onProb
			}
			hold = 1 + r.Intn(2*p.burstHold)
		}
		hold--

		base := p.meanWatts
		if p.burstiness > 0 {
			level := 0.0
			if on {
				level = burstLevel
			}
			base = (1-p.burstiness)*p.meanWatts + p.burstiness*level
		}
		if p.driftPeriod > 0 {
			phase := 2 * math.Pi * float64(i) / float64(p.driftPeriod)
			base *= 1 + p.driftDepth*math.Sin(phase)
		}
		if p.noise > 0 {
			base *= 1 + p.noise*r.NormFloat64()
		}
		if base < 0 {
			base = 0
		}
		t.Samples[i] = base
	}
	return t
}

// Default trace length: 2 seconds of 10µs samples. Simulations wrap as
// needed; 200k samples keep memory small while avoiding visible periodicity
// over typical runs.
const defaultSamples = 200_000

// RFHome synthesizes the paper's default trace: ambient RF harvested in a
// home environment. RF is weak and heavily bursty — long near-zero stretches
// punctuated by transmission bursts — which is what makes power cycles short
// and irregular.
func RFHome(seed uint64) *Trace {
	return generate("RFHome", defaultSamples, seed^0x5f0e, synthParams{
		meanWatts:  220e-6,
		burstiness: 0.85,
		onProb:     0.35,
		burstHold:  120, // ~1.2ms bursts
		noise:      0.45,
	})
}

// Solar synthesizes an indoor-solar trace: much smoother than RF, with a
// slow drift component standing in for illumination changes.
func Solar(seed uint64) *Trace {
	return generate("Solar", defaultSamples, seed^0xa11c, synthParams{
		meanWatts:   220e-6,
		burstiness:  0.25,
		onProb:      0.80,
		burstHold:   400,
		driftPeriod: 50_000, // 0.5s
		driftDepth:  0.30,
		noise:       0.10,
	})
}

// Thermal synthesizes a thermoelectric trace: the steadiest of the three,
// with small fluctuations around a slowly moving mean.
func Thermal(seed uint64) *Trace {
	return generate("Thermal", defaultSamples, seed^0x7e47, synthParams{
		meanWatts:   220e-6,
		burstiness:  0.12,
		onProb:      0.90,
		burstHold:   800,
		driftPeriod: 80_000,
		driftDepth:  0.15,
		noise:       0.06,
	})
}

// Lookup is the one name table of the built-in traces: it maps an accepted
// spelling (any case; "rf" aliases RFHome) to the canonical name and the
// generator, synthesizing nothing.
func Lookup(name string) (string, func(seed uint64) *Trace, error) {
	switch strings.ToLower(name) {
	case "rfhome", "rf":
		return "RFHome", RFHome, nil
	case "solar":
		return "Solar", Solar, nil
	case "thermal":
		return "Thermal", Thermal, nil
	}
	return "", nil, fmt.Errorf("powertrace: unknown trace %q", name)
}

// ByName returns the named built-in trace ("RFHome", "Solar", "Thermal").
func ByName(name string, seed uint64) (*Trace, error) {
	_, gen, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return gen(seed), nil
}

// Names lists the built-in trace names in evaluation order.
func Names() []string { return []string{"RFHome", "Solar", "Thermal"} }
