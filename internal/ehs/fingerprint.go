package ehs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// fingerprintTag prefixes every fingerprint. Fingerprints without it were
// written by builds that hashed every power-trace sample; see
// IsLegacyFingerprint.
const fingerprintTag = "fp2:"

// Fingerprint returns a content-addressed identity for a configuration: a
// version tag and a SHA-256 over every behavior-determining input — the full
// workload definition, the power trace's name, length and identity
// (powertrace.Trace.Identity, which reads no samples), and all architectural
// parameters. Runs are deterministic, so two configs with equal fingerprints
// produce byte-identical results. The fingerprint is the basis of simsvc's
// result memoization and of checkpoint provenance: a snapshot records the
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
		w("trace|%s|%d|%s\n", tr.Name, tr.Len(), tr.Identity())
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
	var sum [sha256.Size]byte
	var out [len(fingerprintTag) + 2*sha256.Size]byte
	copy(out[:], fingerprintTag)
	hex.Encode(out[len(fingerprintTag):], h.Sum(sum[:0]))
	return string(out[:])
}

// IsLegacyFingerprint reports whether a recorded fingerprint (a snapshot's
// ConfigHash) predates the current scheme. Such a hash can equal no current
// fingerprint, but it marks an entry as stale rather than corrupt.
func IsLegacyFingerprint(hash string) bool {
	return !strings.HasPrefix(hash, fingerprintTag)
}
