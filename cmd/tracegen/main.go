// Command tracegen synthesizes and inspects ambient power traces in the
// paper's text format (one average-power sample per 10µs interval).
//
// Usage:
//
//	tracegen -source RFHome -seed 3 -o rfhome.trace
//	tracegen -stats rfhome.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kagura"
	"kagura/internal/powertrace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		source  = fs.String("source", "RFHome", "ambient source: RFHome, Solar, Thermal")
		seed    = fs.Uint64("seed", 1, "generator seed")
		out     = fs.String("o", "", "output file (empty = stdout)")
		samples = fs.Int("samples", 0, "truncate to this many samples (0 = full trace)")
		stats   = fs.String("stats", "", "read a trace file and print its statistics instead of generating")
	)
	_ = fs.Parse(args) // ExitOnError: -h exits 0, a bad flag exits 2

	if *stats != "" {
		f, err := os.Open(*stats)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := powertrace.Read(f)
		if err != nil {
			return err
		}
		printStats(stderr, tr)
		return nil
	}

	tr, err := kagura.Trace(*source, *seed)
	if err != nil {
		return err
	}
	if *samples > 0 && *samples < tr.Len() {
		head := make([]float64, *samples)
		for i := range head {
			head[i] = tr.Power(int64(i))
		}
		tr = powertrace.FromSamples(tr.Name, head)
	}

	if *out == "" {
		return tr.Write(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d samples (%.3fs of %s) to %s\n",
		tr.Len(), tr.Duration(), tr.Name, *out)
	printStats(stderr, tr)
	return nil
}

func printStats(w io.Writer, tr *kagura.PowerTrace) {
	s := tr.Summarize()
	fmt.Fprintf(w, "trace %s: %d samples, %.3fs\n", tr.Name, tr.Len(), tr.Duration())
	fmt.Fprintf(w, "  mean %.1fµW  p50 %.1fµW  p90 %.1fµW  peak %.1fµW\n",
		s.MeanWatts*1e6, s.P50*1e6, s.P90*1e6, s.PeakWatts*1e6)
	fmt.Fprintf(w, "  stable share %.1f%%  near-zero share %.1f%%\n",
		100*s.StableShare, 100*s.ZeroShare)
}
