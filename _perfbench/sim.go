package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"kagura/internal/compress"
	"kagura/internal/ehs"
	"kagura/internal/kagura"
	"kagura/internal/powertrace"
	"kagura/internal/workload"
)

// simApps are Fig 17's six applications, spanning the arithmetic-intensity
// range; the sensitivity studies use the same subset.
var simApps = []string{"jpegd", "jpeg", "gsm", "susan", "patricia", "strings"}

// simClasses are the three configurations every app runs under. The baseline
// never enters the compress/ACC/Kagura code, so a change to the codec path
// should move two thirds of the ops and leave the baseline third unchanged.
var simClasses = []string{"base", "acc", "kagura"}

// simSetups is how many times a sim run repeats its set-up; setup_s is the
// median. One set-up takes well under a second, so many are cheap.
const simSetups = 15

// simCase is one cell of the sim matrix.
type simCase struct {
	label string // "<app>/<class>"
	class string
	app   *workload.App
	cfg   ehs.Config
}

// simMatrix builds the apps × configurations matrix on RFHome at seed.
func simMatrix(seed uint64) ([]simCase, *powertrace.Trace, error) {
	trace := powertrace.RFHome(seed)
	var cases []simCase
	for _, name := range simApps {
		app, err := workload.ByName(name, 1.0)
		if err != nil {
			return nil, nil, err
		}
		base := ehs.Default(app, trace)
		acc := base.WithACC(compress.BDI{})
		cfgs := []ehs.Config{base, acc, acc.WithKagura(kagura.DefaultConfig())}
		for i, cfg := range cfgs {
			cases = append(cases, simCase{name + "/" + simClasses[i], simClasses[i], app, cfg})
		}
	}
	return cases, trace, nil
}

// resultDigest is a SHA-256 over every field of a Result: any change to a
// simulated statistic changes it.
func resultDigest(res *ehs.Result) (string, error) {
	blob, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16]), nil
}

// digestChecker compares each op's Result digest with the expected one:
// the recorded reference at the default seed, otherwise the first digest
// this run saw for the same case (determinism).
type digestChecker struct {
	want map[string]string
}

func newDigestChecker(seed uint64) (*digestChecker, error) {
	want := map[string]string{}
	if seed == defaultSeed {
		ref, err := loadSimReference()
		if err != nil {
			return nil, err
		}
		want = ref
	}
	return &digestChecker{want: want}, nil
}

func (d *digestChecker) check(out *outcome, label string, res *ehs.Result, err error) {
	out.attempted++
	if err != nil {
		out.fail("sim %s: %v", label, err)
		return
	}
	got, err := resultDigest(res)
	if err != nil {
		out.fail("sim %s: %v", label, err)
		return
	}
	want, ok := d.want[label]
	if !ok {
		d.want[label] = got
		return
	}
	if got != want {
		out.fail("sim %s: result digest %s, want %s", label, got, want)
	}
}

// simOp is one timed op's record, kept for the traced run's attribution.
type simOp struct {
	c   *simCase
	sec float64
	res *ehs.Result
}

// runSim times ehs.Run over the matrix, whole passes at a time, until the
// budget is spent (at least one pass).
func runSim(opts options, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{}
	check, err := newDigestChecker(opts.seed)
	if err != nil {
		return nil, err
	}
	var cases []simCase
	var trace *powertrace.Trace
	for i := 0; i < simSetups; i++ {
		releaseMemory()
		start := time.Now()
		cases, trace, err = simMatrix(opts.seed)
		if err != nil {
			return nil, err
		}
		res, err := ehs.Run(cases[0].cfg) // warm-up op
		out.setup = append(out.setup, since(start))
		check.check(out, cases[0].label, res, err)
	}

	var ops []simOp
	start := time.Now()
	for {
		var pass unit
		rss := sampleRSS()
		passStart := time.Now()
		for i := range cases {
			c := &cases[i]
			t := time.Now()
			res, err := ehs.Run(c.cfg)
			sec := since(t)
			check.check(out, c.label, res, err)
			if err != nil {
				continue
			}
			out.opLat = append(out.opLat, sec)
			pass.ops++
			pass.instrs += res.Executed
			if traced {
				ops = append(ops, simOp{c, sec, res})
			}
		}
		pass.sec = since(passStart)
		pass.rssMB = rss.done()
		out.units = append(out.units, pass)
		if since(start) >= seconds {
			break
		}
	}

	if opts.seed != defaultSeed {
		if err := checkSimReference(out); err != nil {
			return nil, err
		}
	}
	if traced {
		layers, err := simLayers(cases, trace, ops)
		if err != nil {
			return nil, err
		}
		out.layers = layers
	}
	return out, nil
}

// checkSimReference runs the default-seed matrix once, untimed, and checks
// every Result against the recorded digests.
func checkSimReference(out *outcome) error {
	check, err := newDigestChecker(defaultSeed)
	if err != nil {
		return err
	}
	cases, _, err := simMatrix(defaultSeed)
	if err != nil {
		return err
	}
	for _, c := range cases {
		res, err := ehs.Run(c.cfg)
		check.check(out, c.label, res, err)
	}
	return nil
}

// simDigests computes the matrix's digests at a seed (for --record).
func simDigests(seed uint64) (map[string]string, error) {
	cases, _, err := simMatrix(seed)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, c := range cases {
		res, err := ehs.Run(c.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		if out[c.label], err = resultDigest(res); err != nil {
			return nil, err
		}
	}
	return out, nil
}
