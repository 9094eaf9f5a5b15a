package lint

import (
	"go/ast"
	"go/types"
)

// SimDeterminism enforces reproducibility in the deterministic core: the
// packages whose outputs the paper-reproduction numbers are computed from.
// Within them it forbids
//
//   - wall-clock reads and timers (time.Now, time.Since, time.Tick, …) —
//     simulated time must derive from cycle counts, never the host clock;
//   - math/rand and math/rand/v2 (any use, including seeded constructors) —
//     all randomness must come from internal/rng's splittable generator so
//     streams are reproducible and independent of call interleaving;
//   - environment reads (os.Getenv, os.LookupEnv, …) — configuration must
//     flow through explicit config structs that feed the content-addressed
//     cache keys;
//   - goroutine spawns — concurrency inside the core can reorder observable
//     events; the sanctioned escape hatch is a //kagura:allow goroutine
//     annotation whose reason argues the fan-out cannot change results.
//
// The serving layer (simsvc, cmd/…) is exempt: it legitimately measures
// wall-clock latencies and runs worker pools.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global randomness, env reads, and goroutines in the deterministic simulation core",
	Run:  runSimDeterminism,
}

// CorePackages lists the deterministic-core import paths SimDeterminism
// applies to. simsvc and the cmd/ binaries are deliberately absent.
var CorePackages = []string{
	"kagura",
	"kagura/internal/acc",
	"kagura/internal/analytic",
	"kagura/internal/cache",
	"kagura/internal/capacitor",
	"kagura/internal/ckpt",
	"kagura/internal/compress",
	"kagura/internal/ehs",
	"kagura/internal/experiments",
	"kagura/internal/faultinject",
	"kagura/internal/frame",
	"kagura/internal/journal",
	"kagura/internal/kagura",
	"kagura/internal/nvm",
	"kagura/internal/obs",
	"kagura/internal/powertrace",
	"kagura/internal/store",
	"kagura/internal/workload",
}

// IsCorePackage reports whether path is part of the deterministic core.
func IsCorePackage(path string) bool {
	for _, p := range CorePackages {
		if path == p {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time package functions that read the host clock or
// create host timers. Arithmetic on existing time.Time/Duration values stays
// legal: only acquiring wall-clock state is banned.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// envFuncs are the os package environment readers.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

func runSimDeterminism(pass *Pass) error {
	if !IsCorePackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine",
					"goroutine spawn in deterministic core package %s; prove the fan-out is order-independent and annotate //kagura:allow goroutine, or move the concurrency into simsvc",
					pass.Pkg.Path())
			case *ast.Ident:
				checkDeterminismUse(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDeterminismUse flags identifier uses resolving to banned functions.
// Walking the AST (rather than ranging over Info.Uses) keeps report order
// deterministic and catches dot-imports for free.
func checkDeterminismUse(pass *Pass, id *ast.Ident) {
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(id.Pos(), "time",
				"time.%s reads the host clock in deterministic core package %s; derive timing from simulated cycles", fn.Name(), pass.Pkg.Path())
		}
	case "os":
		if envFuncs[fn.Name()] {
			pass.Reportf(id.Pos(), "env",
				"os.%s makes results depend on the process environment; pass configuration explicitly so cache keys stay content-addressed", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(id.Pos(), "rand",
			"%s.%s breaks reproducibility; use kagura/internal/rng (explicitly seeded, splittable) instead", fn.Pkg().Path(), fn.Name())
	}
}
