// Command kagura-ckpt takes, inspects, and compares simulator checkpoints.
//
// Usage:
//
//	kagura-ckpt take -cycle 450000 -o mid.ckpt -app jpeg -codec BDI -acc
//	kagura-ckpt describe mid.ckpt
//	kagura-ckpt diff mid.ckpt other.ckpt
//	kagura-ckpt resume -app jpeg -codec BDI -acc mid.ckpt
//	kagura-ckpt store ls -dir /var/lib/kagura/store
//	kagura-ckpt journal ls -dir /var/lib/kagura/store/journal
//
// take runs a configuration (same spec flags as kagura-sim) to a cycle bound
// and writes the encoded snapshot. describe prints a human-readable summary.
// diff reports every field-level difference between two checkpoints and exits
// non-zero when they differ. resume restores a checkpoint into a fresh
// simulator built from the given spec flags and runs it to completion —
// under the original config this reproduces the uninterrupted run exactly;
// under a variant config it forks the warm prefix (sweep warm-start).
//
// store inspects a kagura-serve persistent store directory (DESIGN.md §12):
// ls lists every entry, gc evicts down to a byte budget and clears the
// quarantine, and verify re-reads every payload end to end, quarantining any
// entry that fails its checksum or decoder. verify lists a checkpoint whose
// fingerprint predates the fp2 scheme as LEGACY: the service recomputes and
// overwrites it, so it is neither quarantined nor counted corrupt.
//
// journal inspects a kagura-serve crash-journal directory (DESIGN.md §14):
// ls decodes and lists the intent records read-only, and verify runs the
// server's own recovery — truncating torn tails, quarantining corrupt
// segments — exiting 1 if it had to repair anything.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"kagura"
	"kagura/internal/ckpt"
	"kagura/internal/ehs"
	"kagura/internal/frame"
	"kagura/internal/journal"
	"kagura/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "take":
		cmdTake(os.Args[2:])
	case "describe":
		cmdDescribe(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "resume":
		cmdResume(os.Args[2:])
	case "store":
		cmdStore(os.Args[2:])
	case "journal":
		cmdJournal(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kagura-ckpt: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `kagura-ckpt manages simulator checkpoints.

Commands:
  take      run a configuration to a cycle bound and write a checkpoint
  describe  print a human-readable summary of a checkpoint file
  diff      compare two checkpoint files field by field (exit 1 if they differ)
  resume    restore a checkpoint and run it to completion
  store     inspect a persistent store directory: ls, gc, or verify
  journal   inspect a crash-journal directory: ls (read-only) or verify

Run "kagura-ckpt <command> -h" for the command's flags.
`)
}

// specFlags registers the kagura-sim spec flags on fs and returns a closure
// that assembles the normalized RunSpec after fs.Parse.
func specFlags(fs *flag.FlagSet) func() (kagura.RunSpec, error) {
	var (
		appName  = fs.String("app", "jpeg", "workload name")
		appFile  = fs.String("workload", "", "JSON workload definition file (overrides -app)")
		traceSrc = fs.String("trace", "RFHome", "ambient source: RFHome, Solar, Thermal")
		seed     = fs.Uint64("seed", 1, "power-trace seed")
		scale    = fs.Float64("scale", 1.0, "workload length scale")
		codec    = fs.String("codec", "", "compression algorithm: BDI, FPC, C-Pack, DZC (empty = none)")
		useACC   = fs.Bool("acc", false, "gate compression behind the ACC predictor")
		useKag   = fs.Bool("kagura", false, "enable the Kagura controller")
		trigger  = fs.String("trigger", "mem", "Kagura trigger: mem or vol")
		policy   = fs.String("policy", "AIMD", "R_thres policy: AIMD, MIAD, AIAD, MIMD")
		design   = fs.String("design", "NVSRAMCache", "EHS design: NVSRAMCache, NvMR, SweepCache")
		decay    = fs.Int64("decay", 0, "EDBP cache-decay interval in cycles (0 = off)")
		prefetch = fs.Bool("prefetch", false, "enable the next-line prefetcher")
	)
	return func() (kagura.RunSpec, error) {
		spec := kagura.RunSpec{
			App:           *appName,
			Scale:         *scale,
			Trace:         *traceSrc,
			Seed:          *seed,
			Codec:         *codec,
			ACC:           *useACC && *codec != "",
			Kagura:        *useKag,
			Design:        *design,
			DecayInterval: *decay,
			Prefetch:      *prefetch,
		}
		if *useKag {
			spec.Policy = *policy
			spec.Trigger = *trigger
		}
		if *appFile != "" {
			blob, err := os.ReadFile(*appFile)
			if err != nil {
				return spec, err
			}
			spec.App = ""
			spec.Workload = blob
		}
		return spec.Normalize()
	}
}

func cmdTake(args []string) {
	fs := flag.NewFlagSet("kagura-ckpt take", flag.ExitOnError)
	cycle := fs.Int64("cycle", 0, "core cycle to run to before snapshotting (required, > 0)")
	out := fs.String("o", "kagura.ckpt", "output checkpoint file")
	buildSpec := specFlags(fs)
	fs.Parse(args)
	if *cycle <= 0 {
		fatal(fmt.Errorf("take needs -cycle > 0"))
	}

	spec, err := buildSpec()
	fatal(err)
	cfg, err := spec.Config()
	fatal(err)
	sim, err := ehs.New(cfg)
	fatal(err)
	completed, err := sim.RunToCycle(context.Background(), *cycle)
	fatal(err)
	snap, err := sim.Snapshot()
	fatal(err)
	blob, err := ckpt.Encode(snap)
	fatal(err)
	// Atomic: a crash mid-write must never leave a truncated checkpoint at
	// -o, and must not destroy a previous checkpoint already there.
	fatal(frame.WriteFileAtomic(*out, blob, 0o644))

	fmt.Printf("wrote %s: %d bytes at cycle %d (pos %d", *out, len(blob), snap.Time, snap.Pos)
	if completed {
		fmt.Printf(", program complete")
	}
	fmt.Printf(")\nconfig fingerprint: %s\n", snap.ConfigHash)
}

func cmdDescribe(args []string) {
	fs := flag.NewFlagSet("kagura-ckpt describe", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("describe needs exactly one checkpoint file"))
	}
	snap, err := readCkpt(fs.Arg(0))
	fatal(err)
	fmt.Print(ckpt.Describe(snap))
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("kagura-ckpt diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("diff needs exactly two checkpoint files"))
	}
	a, err := readCkpt(fs.Arg(0))
	fatal(err)
	b, err := readCkpt(fs.Arg(1))
	fatal(err)
	diffs := ckpt.Diff(a, b)
	if len(diffs) == 0 {
		fmt.Println("checkpoints are identical")
		return
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
	fmt.Printf("%d field(s) differ\n", len(diffs))
	os.Exit(1)
}

func cmdResume(args []string) {
	fs := flag.NewFlagSet("kagura-ckpt resume", flag.ExitOnError)
	buildSpec := specFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("resume needs exactly one checkpoint file"))
	}
	snap, err := readCkpt(fs.Arg(0))
	fatal(err)
	spec, err := buildSpec()
	fatal(err)
	cfg, err := spec.Config()
	fatal(err)
	switch {
	case ehs.IsLegacyFingerprint(snap.ConfigHash):
		fmt.Fprintf(os.Stderr, "kagura-ckpt: legacy fingerprint (pre-fp2), treating as a fork\n")
	case cfg.Fingerprint() != snap.ConfigHash:
		fmt.Fprintf(os.Stderr, "kagura-ckpt: config differs from the checkpoint's source — forking the warm prefix onto the variant config\n")
	}
	res, err := ehs.RunFrom(context.Background(), snap, cfg)
	fatal(err)

	fmt.Printf("resumed from cycle %d\n", snap.Time)
	fmt.Printf("completed:    %v\n", res.Completed)
	fmt.Printf("exec time:    %.3f ms\n", res.ExecSeconds*1e3)
	fmt.Printf("committed:    %d instructions (%d executed)\n", res.Committed, res.Executed)
	fmt.Printf("power cycles: %d\n", res.PowerCycles)
	fmt.Printf("energy total: %.3f µJ\n", res.Energy.Total()*1e6)
}

// cmdStore inspects a kagura-serve persistent store directory. The store is
// opened with an unbounded budget so inspection never evicts entries as a
// side effect; only gc's explicit budget removes anything.
func cmdStore(args []string) {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "kagura-ckpt: store needs a subcommand: ls, gc, or verify")
		os.Exit(2)
	}
	sub := args[0]
	fs := flag.NewFlagSet("kagura-ckpt store "+sub, flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	budget := fs.Int64("budget", store.DefaultBudgetBytes,
		"gc: byte budget to evict down to (0 empties the store, negative = unbounded)")
	fs.Parse(args[1:])
	if *dir == "" {
		fatal(fmt.Errorf("store %s needs -dir", sub))
	}
	st, err := store.Open(store.Options{Dir: *dir, BudgetBytes: -1})
	fatal(err)
	scanned := st.Metrics()

	switch sub {
	case "ls":
		entries := st.Entries()
		for _, e := range entries {
			fmt.Printf("%-10s %12d  %s\n", e.Kind, e.Bytes, e.Key)
		}
		fmt.Printf("%d entries, %d bytes (%d quarantined at scan)\n",
			len(entries), st.Bytes(), scanned.ScanCorrupted)
	case "gc":
		evicted, err := st.GC(*budget)
		fatal(err)
		fmt.Printf("evicted %d entries, cleared the quarantine; store now %d entries, %d bytes\n",
			evicted, st.Len(), st.Bytes())
	case "verify":
		entries := st.Entries()
		bad, legacy := 0, 0
		for _, e := range entries {
			payload, ok := st.Get(e.Kind, e.Key)
			if !ok {
				// Structural or checksum damage: Get already quarantined it.
				fmt.Printf("CORRUPT %-10s %s (quarantined)\n", e.Kind, e.Key)
				bad++
				continue
			}
			// The framing is intact — run the payload through its own decoder.
			var derr error
			switch e.Kind {
			case store.KindResult:
				_, derr = ckpt.DecodeResult(payload)
			case store.KindCheckpoint:
				var snap *ehs.Snapshot
				if snap, derr = ckpt.Decode(payload); derr == nil && ehs.IsLegacyFingerprint(snap.ConfigHash) {
					// Stale, not damaged: the service treats it as a miss
					// and overwrites it.
					fmt.Printf("LEGACY  %-10s %s (pre-fp2 fingerprint)\n", e.Kind, e.Key)
					legacy++
				}
			}
			if derr != nil {
				st.Quarantine(e.Kind, e.Key)
				fmt.Printf("CORRUPT %-10s %s: %v (quarantined)\n", e.Kind, e.Key, derr)
				bad++
			}
		}
		fmt.Printf("verified %d entries: %d corrupt, %d legacy (%d more quarantined at scan)\n",
			len(entries), bad, legacy, scanned.ScanCorrupted)
		if bad > 0 || scanned.ScanCorrupted > 0 {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "kagura-ckpt: unknown store subcommand %q (want ls, gc, or verify)\n", sub)
		os.Exit(2)
	}
}

// cmdJournal inspects a kagura-serve crash-journal directory
// (<store-dir>/journal, DESIGN.md §14). ls is strictly read-only: it decodes
// what it can and reports damage without repairing anything. verify opens
// the journal the way the server does — truncating a torn tail, quarantining
// a corrupt segment (degrading it to an empty replay rather than a crash,
// the same posture as `store verify`) — and exits 1 if it had to repair.
func cmdJournal(args []string) {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "kagura-ckpt: journal needs a subcommand: ls or verify")
		os.Exit(2)
	}
	sub := args[0]
	fs := flag.NewFlagSet("kagura-ckpt journal "+sub, flag.ExitOnError)
	dir := fs.String("dir", "", "journal directory (required)")
	fs.Parse(args[1:])
	if *dir == "" {
		fatal(fmt.Errorf("journal %s needs -dir", sub))
	}

	switch sub {
	case "ls":
		ins, err := journal.Inspect(*dir)
		fatal(err)
		for _, rec := range ins.Records {
			switch rec.Type {
			case journal.TypeJobSubmit:
				fork := ""
				if rec.ForkCycles > 0 {
					fork = fmt.Sprintf(" (fork@%d)", rec.ForkCycles)
				}
				fmt.Printf("%-14s %s%s\n", rec.Type, rec.Key, fork)
			case journal.TypeJobSettle:
				fmt.Printf("%-14s %s\n", rec.Type, rec.Key)
			case journal.TypeCampaignWave:
				fmt.Printf("%-14s %s wave %d (%d points)\n", rec.Type, rec.Campaign, rec.Wave, len(rec.Points))
			default:
				fmt.Printf("%-14s %s\n", rec.Type, rec.Campaign)
			}
		}
		fmt.Printf("%d records, %d bytes — fold: %d pending job(s), %d campaign(s)\n",
			len(ins.Records), ins.SizeBytes, len(ins.State.Pending), len(ins.State.Campaigns))
		if ins.HeaderErr != nil {
			fmt.Printf("DAMAGED header: %v (verify would quarantine this segment)\n", ins.HeaderErr)
		}
		if ins.Damage != nil {
			fmt.Printf("DAMAGED tail: %v (%d bytes; verify would truncate)\n", ins.Damage, ins.TornBytes)
		}
	case "verify":
		jnl, err := journal.Open(*dir)
		fatal(err)
		defer jnl.Close()
		m := jnl.Metrics()
		st := jnl.State()
		fmt.Printf("journal opens clean after recovery: %d pending job(s), %d campaign(s), %d bytes\n",
			len(st.Pending), len(st.Campaigns), m.SizeBytes)
		repaired := false
		if m.CorruptSegments > 0 {
			fmt.Printf("QUARANTINED %d corrupt segment(s) (see %s)\n", m.CorruptSegments, filepath.Join(*dir, "quarantine"))
			repaired = true
		}
		if m.TornBytesTruncated > 0 {
			fmt.Printf("TRUNCATED %d torn byte(s) from the tail\n", m.TornBytesTruncated)
			repaired = true
		}
		if repaired {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "kagura-ckpt: unknown journal subcommand %q (want ls or verify)\n", sub)
		os.Exit(2)
	}
}

func readCkpt(path string) (*ehs.Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ckpt.Decode(blob)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kagura-ckpt:", err)
		os.Exit(1)
	}
}
