package lint

import (
	"go/ast"
)

// AtomicWrite enforces the crash-consistency contract from DESIGN.md §11–12:
// in the packages that persist durable state (checkpoints, store entries,
// anything a restart must be able to trust), every file write goes through
// frame.WriteFileAtomic — temp file, fsync, rename — so a crash at any
// instant leaves either the old complete file or the new complete one.
//
// The analyzer bans the raw primitives inside PersistingPackages:
//
//   - os.WriteFile truncates the destination before writing, so an
//     interruption destroys the previous copy too;
//   - os.Create is the same truncate-then-write idiom spelled out;
//   - os.Rename outside WriteFileAtomic is a commit of bytes that were not
//     necessarily synced — the two sanctioned renames (WriteFileAtomic's
//     commit point, frame.Quarantine's move of an already-complete file)
//     carry //kagura:allow annotations explaining why they are safe.
//
// os.CreateTemp and plain reads stay legal; the invariant governs what lands
// at a durable path, not scratch space.
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "require frame.WriteFileAtomic for durable writes in persisting packages (no os.WriteFile/os.Create/raw os.Rename)",
	Run:  runAtomicWrite,
}

// PersistingPackages lists the packages whose file writes are durable state:
// the shared framing with its atomic write, the checkpoint codec, the
// on-disk store and journal, the service that publishes into them, and the
// CLIs that write checkpoints or campaign reports (a torn report would
// poison byte-for-byte determinism diffs). cmd/kagura-sim,
// tracegen, and kagura-bench write user-facing report files, not recovery
// state, and are deliberately absent.
var PersistingPackages = []string{
	"kagura/cmd/kagura-campaign",
	"kagura/cmd/kagura-ckpt",
	"kagura/cmd/kagura-serve",
	"kagura/internal/ckpt",
	"kagura/internal/frame",
	"kagura/internal/journal",
	"kagura/internal/simsvc",
	"kagura/internal/store",
}

// IsPersistingPackage reports whether path persists durable state.
func IsPersistingPackage(path string) bool {
	for _, p := range PersistingPackages {
		if path == p {
			return true
		}
	}
	return false
}

// rawWriteFuncs are the os-package primitives that bypass the atomic-write
// protocol.
var rawWriteFuncs = map[string]string{
	"WriteFile": "truncates the destination before writing, so a crash mid-write destroys the previous copy",
	"Create":    "truncates the destination before writing, so a crash mid-write destroys the previous copy",
	"Rename":    "commits bytes that were not necessarily fsynced",
}

func runAtomicWrite(pass *Pass) error {
	if !IsPersistingPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.FuncOf(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
				return true
			}
			if why, banned := rawWriteFuncs[fn.Name()]; banned {
				pass.Reportf(call.Pos(), "atomicwrite",
					"os.%s in persisting package %s %s; write through frame.WriteFileAtomic (temp+fsync+rename)",
					fn.Name(), pass.Pkg.Path(), why)
			}
			return true
		})
	}
	return nil
}
