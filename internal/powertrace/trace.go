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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kagura/internal/rng"
)

// IntervalSeconds is the duration covered by one trace sample: 10µs.
const IntervalSeconds = 10e-6

// chunkLen is the number of samples a built-in trace synthesizes at a time.
// Runs read a few thousand samples at most, so a small chunk keeps the
// synthesis they trigger close to what they read.
const chunkLen = 1024

type chunk [chunkLen]float64

// Trace is an ambient power trace: sample i is the average harvested power in
// watts over the i-th 10µs interval. Traces repeat cyclically when a
// simulation outlives them.
//
// A built-in trace synthesizes its samples on demand, chunk by chunk and in
// order, up to the highest index anyone has read; the samples are the same
// as if the whole trace had been generated up front. A Trace is safe for
// concurrent use and must not be copied.
type Trace struct {
	// Name identifies the ambient source (e.g. "RFHome").
	Name string

	n int
	// chunks[k] holds samples [k*chunkLen, (k+1)*chunkLen), or is nil until
	// synthesized. Once stored, a chunk is never written again.
	chunks []atomic.Pointer[chunk]

	mu  sync.Mutex // serializes synthesis
	gen *generator // nil once every chunk is stored

	id string // see Identity
}

func newTrace(name string, n int) *Trace {
	return &Trace{Name: name, n: n, chunks: make([]atomic.Pointer[chunk], (n+chunkLen-1)/chunkLen)}
}

// FromSamples returns a trace holding a copy of the given samples (watts per
// 10µs interval). Its identity is the SHA-256 of the samples, computed here,
// once.
func FromSamples(name string, samples []float64) *Trace {
	t := newTrace(name, len(samples))
	for k := range t.chunks {
		c := new(chunk)
		copy(c[:], samples[k*chunkLen:])
		t.chunks[k].Store(c)
	}
	t.id = "samples|" + samplesDigest(samples)
	return t
}

// samplesDigest is the hex SHA-256 of the samples, each as its 8
// little-endian IEEE-754 bytes, written in batches of 64 through one small
// buffer.
func samplesDigest(samples []float64) string {
	h := sha256.New()
	var buf [512]byte
	for len(samples) > 0 {
		m := min(len(samples), len(buf)/8)
		for j, s := range samples[:m] {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(s))
		}
		h.Write(buf[:8*m])
		samples = samples[m:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Len returns the number of samples before the trace wraps.
func (t *Trace) Len() int { return t.n }

// Identity names the trace's samples without reading them. A built-in
// trace is named by its source, seed, length and generatorVersion; a trace
// built from explicit samples, by their SHA-256. Equal identities mean equal
// samples. The converse does not hold: an explicit copy of a built-in
// trace's samples has a different identity from the built-in.
func (t *Trace) Identity() string { return t.id }

// Synthesized reports how many samples the trace holds so far: the prefix a
// built-in trace has synthesized, or every sample of an explicit trace.
func (t *Trace) Synthesized() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen == nil {
		return t.n
	}
	return t.gen.i
}

// Power returns the harvested power during the interval containing the given
// absolute interval index. The trace wraps around when exhausted.
func (t *Trace) Power(interval int64) float64 {
	n := int64(t.n)
	if n == 0 {
		return 0
	}
	i := interval % n
	if i < 0 {
		i += n
	}
	k := int(uint64(i) / chunkLen)
	c := t.chunks[k].Load()
	if c == nil {
		c = t.fill(k)
	}
	return c[uint64(i)%chunkLen]
}

// Each calls fn with the trace's samples in order, one block at a time,
// synthesizing any block not yet read. fn must not modify or retain a block.
func (t *Trace) Each(fn func(block []float64)) {
	for k := range t.chunks {
		c := t.chunks[k].Load()
		if c == nil {
			c = t.fill(k)
		}
		fn(c[:min(chunkLen, t.n-k*chunkLen)])
	}
}

// fill synthesizes the chunks up to and including chunk k, in order, and
// returns chunk k.
func (t *Trace) fill(k int) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.gen != nil && t.gen.i <= k*chunkLen {
		next := t.gen.i / chunkLen
		c := new(chunk)
		t.gen.next(c[:min(chunkLen, t.n-t.gen.i)])
		t.chunks[next].Store(c)
		if t.gen.i == t.n {
			t.gen = nil
		}
	}
	return t.chunks[k].Load()
}

// Duration returns the trace length in seconds (before wrapping).
func (t *Trace) Duration() float64 {
	return float64(t.n) * IntervalSeconds
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
	if t.n == 0 {
		return s
	}
	samples := make([]float64, 0, t.n)
	t.Each(func(block []float64) { samples = append(samples, block...) })

	s.MinWatts = math.Inf(1)
	var sum, sumSq float64
	for _, p := range samples {
		sum += p
		sumSq += p * p
		if p > s.PeakWatts {
			s.PeakWatts = p
		}
		if p < s.MinWatts {
			s.MinWatts = p
		}
	}
	n := float64(len(samples))
	s.MeanWatts = sum / n
	variance := sumSq/n - s.MeanWatts*s.MeanWatts
	if variance > 0 {
		s.StdDevWatts = math.Sqrt(variance)
	}
	stable, zero := 0, 0
	for _, p := range samples {
		if p >= 0.5*s.MeanWatts && p <= 1.5*s.MeanWatts {
			stable++
		}
		if p < 0.01*s.MeanWatts {
			zero++
		}
	}
	s.StableShare = float64(stable) / n
	s.ZeroShare = float64(zero) / n

	sort.Float64s(samples)
	pct := func(q float64) float64 {
		idx := int(q * float64(len(samples)-1))
		return samples[idx]
	}
	s.P10, s.P50, s.P90 = pct(0.10), pct(0.50), pct(0.90)
	return s
}

// Write serializes the trace in the paper's text format: one average-power
// value (watts) per line. A header comment records the name and interval.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// A bufio.Writer keeps its first write error and Flush returns it, so the
	// writes below are checked once, at the end.
	fmt.Fprintf(bw, "# trace %s interval_us 10\n", t.Name)
	var line []byte
	t.Each(func(block []float64) {
		for _, p := range block {
			line = append(strconv.AppendFloat(line[:0], p, 'g', -1, 64), '\n')
			bw.Write(line)
		}
	})
	return bw.Flush()
}

// Read parses a trace in the text format produced by Write. Lines beginning
// with '#' are comments; the first comment of the form "# trace NAME ..."
// sets the trace name. Every sample must be a finite, non-negative power.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	name := ""
	var samples []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) >= 2 && fields[0] == "trace" && name == "" {
				name = fields[1]
			}
			continue
		}
		p, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("powertrace: line %d: %v", line, err)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("powertrace: line %d: non-finite power %v", line, p)
		}
		if p < 0 {
			return nil, fmt.Errorf("powertrace: line %d: negative power %v", line, p)
		}
		samples = append(samples, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("powertrace: %v", err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("powertrace: empty trace")
	}
	if name == "" {
		name = "unnamed"
	}
	return FromSamples(name, samples), nil
}

// synthParams configures the generic synthetic generator shared by the three
// named sources.
type synthParams struct {
	seedMix   uint64  // XORed into the caller's seed, so each source draws its own stream
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

// generator is the resumable state of one synthetic trace: each call to next
// continues the sample stream where the previous call stopped.
type generator struct {
	p          synthParams
	r          *rng.Source
	on         bool // in a harvesting burst
	hold       int  // samples left before the burst state is redrawn
	burstLevel float64
	i          int // index of the next sample
}

// generatorVersion names the output of the built-in generators. It is part
// of every built-in trace's identity, so bump it whenever a change alters
// any sample a built-in trace yields for some seed.
const generatorVersion = 1

// generate returns an n-sample trace whose samples are synthesized on demand.
func generate(name string, n int, seed uint64, p synthParams) *Trace {
	r := rng.New(seed ^ p.seedMix)
	t := newTrace(name, n)
	t.id = fmt.Sprintf("builtin|%s|%d|%d|gen%d", name, seed, n, generatorVersion)
	t.gen = &generator{
		p: p,
		r: r,
		// Two-state (burst/idle) modulation: choose level so the long-run
		// mean matches meanWatts given the duty cycle onProb.
		on:         r.Float64() < p.onProb,
		burstLevel: p.meanWatts / math.Max(p.onProb, 1e-9),
	}
	return t
}

// next fills block with the next len(block) samples.
func (g *generator) next(block []float64) {
	p := g.p
	for j := range block {
		if g.hold <= 0 {
			// Redraw the state with probability onProb each run, so the
			// run-length process stays near onProb on-share.
			g.on = g.r.Float64() < p.onProb
			g.hold = 1 + g.r.Intn(2*p.burstHold)
		}
		g.hold--

		base := p.meanWatts
		if p.burstiness > 0 {
			level := 0.0
			if g.on {
				level = g.burstLevel
			}
			base = (1-p.burstiness)*p.meanWatts + p.burstiness*level
		}
		if p.driftPeriod > 0 {
			phase := 2 * math.Pi * float64(g.i) / float64(p.driftPeriod)
			base *= 1 + p.driftDepth*math.Sin(phase)
		}
		if p.noise > 0 {
			base *= 1 + p.noise*g.r.NormFloat64()
		}
		if base < 0 {
			base = 0
		}
		block[j] = base
		g.i++
	}
}

// Default trace length: 2 seconds of 10µs samples. Simulations wrap as
// needed; 200k samples keep memory small while avoiding visible periodicity
// over typical runs.
const defaultSamples = 200_000

// The built-in sources' generator settings.
var (
	rfHomeParams = synthParams{
		seedMix:    0x5f0e,
		meanWatts:  220e-6,
		burstiness: 0.85,
		onProb:     0.35,
		burstHold:  120, // ~1.2ms bursts
		noise:      0.45,
	}
	solarParams = synthParams{
		seedMix:     0xa11c,
		meanWatts:   220e-6,
		burstiness:  0.25,
		onProb:      0.80,
		burstHold:   400,
		driftPeriod: 50_000, // 0.5s
		driftDepth:  0.30,
		noise:       0.10,
	}
	thermalParams = synthParams{
		seedMix:     0x7e47,
		meanWatts:   220e-6,
		burstiness:  0.12,
		onProb:      0.90,
		burstHold:   800,
		driftPeriod: 80_000,
		driftDepth:  0.15,
		noise:       0.06,
	}
)

// RFHome synthesizes the paper's default trace: ambient RF harvested in a
// home environment. RF is weak and heavily bursty — long near-zero stretches
// punctuated by transmission bursts — which is what makes power cycles short
// and irregular.
func RFHome(seed uint64) *Trace { return generate("RFHome", defaultSamples, seed, rfHomeParams) }

// Solar synthesizes an indoor-solar trace: much smoother than RF, with a
// slow drift component standing in for illumination changes.
func Solar(seed uint64) *Trace { return generate("Solar", defaultSamples, seed, solarParams) }

// Thermal synthesizes a thermoelectric trace: the steadiest of the three,
// with small fluctuations around a slowly moving mean.
func Thermal(seed uint64) *Trace { return generate("Thermal", defaultSamples, seed, thermalParams) }

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
