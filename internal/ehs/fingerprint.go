package ehs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Fingerprint returns a content-addressed identity for a configuration: a
// SHA-256 over every behavior-determining input — the full workload
// definition, the power trace samples, and all architectural parameters.
// Runs are deterministic, so two configs with equal fingerprints produce
// byte-identical results. The fingerprint is the basis of simsvc's result
// memoization and of checkpoint provenance: a snapshot records the
// fingerprint of the config it was taken under, and RestoreSnapshot uses it
// to distinguish an exact resume from a cross-config fork.
func (c Config) Fingerprint() string {
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }

	if app := c.App; app != nil {
		w("app|%s|%d|%d\n", app.Name, app.Seed, app.Len())
		for _, r := range app.Regions {
			w("region|%d|%d|%d|%d\n", r.Base, r.SizeWords, r.HotWords, r.Class)
		}
		for _, p := range app.Phases {
			w("phase|%d|%d|%d|", p.Iterations, p.CodeBase, p.CodeWords)
			for _, s := range p.Body {
				w("%d.%d.%d,", s.Kind, s.Pattern, s.Region)
			}
			w("\n")
		}
	}
	if tr := c.Trace; tr != nil {
		w("trace|%s|%d\n", tr.Name, tr.Len())
		// Each sample hashes as its 8 little-endian IEEE-754 bytes, written
		// in batches of 64 through one small buffer.
		var buf [512]byte
		tr.Each(func(block []float64) {
			for len(block) > 0 {
				m := min(len(block), len(buf)/8)
				for j, s := range block[:m] {
					binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(s))
				}
				h.Write(buf[:8*m])
				block = block[m:]
			}
		})
	}
	w("cap|%+v\n", c.Capacitor)
	w("nvm|%+v\n", c.NVM)
	w("icache|%s|%d|%d|%d|%d|%d|%d\n", c.ICache.Name, c.ICache.SizeBytes,
		c.ICache.Ways, c.ICache.BlockSize, c.ICache.TagFactor,
		c.ICache.SegmentBytes, c.ICache.Replacement)
	w("dcache|%s|%d|%d|%d|%d|%d|%d\n", c.DCache.Name, c.DCache.SizeBytes,
		c.DCache.Ways, c.DCache.BlockSize, c.DCache.TagFactor,
		c.DCache.SegmentBytes, c.DCache.Replacement)
	if c.Codec != nil {
		w("codec|%s\n", c.Codec.Name())
	}
	w("acc|%t\n", c.UseACC)
	if c.Kagura != nil {
		w("kagura|%+v\n", *c.Kagura)
	}
	w("design|%s\n", c.Design)
	w("energy|%+v\n", c.Energy)
	w("decay|%d|prefetch|%t|atomic|%d|cyclelog|%t|maxsim|%g\n",
		c.DecayInterval, c.Prefetch, c.AtomicRegionInstrs,
		c.CollectCycleLog, c.MaxSimSeconds)
	if c.Oracle != nil {
		// Oracles carry run-accumulated state that cannot be fingerprinted by
		// value; their process-unique creation ID keeps distinct oracle runs
		// from aliasing (a pointer could be reused by the allocator after GC).
		w("oracle|%d|%d\n", c.Oracle.Mode, c.Oracle.ID())
	}
	return hex.EncodeToString(h.Sum(nil))
}
