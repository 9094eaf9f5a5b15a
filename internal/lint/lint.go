// Package lint is kagura's project-specific static-analysis suite. It
// enforces the invariants the rest of the repository depends on but the
// compiler cannot check:
//
//   - Simulation determinism: the deterministic core packages (ehs, cache,
//     compress, …) must be bit-for-bit reproducible, so wall-clock reads,
//     math/rand global state, environment lookups, unordered map iteration
//     feeding output, and exact float comparison are all forbidden there
//     (analyzers simdeterminism, mapiterorder, floateq).
//
//   - Concurrency hygiene: the serving layer (simsvc) must never block while
//     holding a mutex — the class of bug behind PR 1's close-of-closed-channel
//     worker panic (analyzer lockedblock).
//
//   - Durable writes: persisting packages write files atomically
//     (atomicwrite).
//
// Contracts a type or a plain test can state live there instead:
// fault-injection points are typed values of internal/faultinject's
// registry and metric families typed values of internal/obs's catalog, so a
// misspelled name does not compile; the cache holds a size-only
// compress.Sizer, so a size probe cannot build an encoding; service errors
// carry their code in *simsvc.Error; and internal/frame's hostile-length
// sweep bounds what every decoder allocates. Every analyzer here checks one
// package at a time; none needs facts about another package.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis (Analyzer
// / Pass / Diagnostic) but is built on the standard library alone, because
// this module carries no third-party dependencies. cmd/kagura-vet is the
// multichecker driver; linttest is the analysistest-style fixture runner.
//
// # Suppression
//
// A finding is suppressed by an annotation on the same line or the line
// immediately above it:
//
//	//kagura:allow <check>[,<check>...] <reason>
//
// where <check> is either an analyzer name ("lockedblock") or one of an
// analyzer's sub-checks ("goroutine", "time", "rand", "env"). The reason is
// mandatory free text saying why the invariant holds anyway; a Suite with
// ReportUnusedAllow set flags annotations that suppressed nothing (stale)
// and annotations without a reason.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //kagura:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis, reporting findings through pass.Reportf.
	Run func(*Pass) error
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SimDeterminism, LockedBlock, MapIterOrder, FloatEq, AtomicWrite,
	}
}

// UnusedAllowName is the pseudo-analyzer name under which stale or
// reason-less //kagura:allow annotations are reported.
const UnusedAllowName = "unusedallow"

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Check    string // sub-check name matched against //kagura:allow
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// allowCheck is one check name from a //kagura:allow comment, with usage
// tracking for the unusedallow report.
type allowCheck struct {
	name string
	used bool
}

// allowComment is one parsed //kagura:allow annotation.
type allowComment struct {
	pos    token.Position
	checks []*allowCheck
	reason string
}

// allowIndex holds every //kagura:allow annotation of one package, shared by
// all analyzers in a suite run so usage accumulates across them.
type allowIndex struct {
	byLine map[string]map[int][]*allowComment // filename → line → comments
	all    []*allowComment                    // in source order
}

// newAllowIndex parses the //kagura:allow annotations of a package.
func newAllowIndex(pkg *Package) *allowIndex {
	idx := &allowIndex{byLine: make(map[string]map[int][]*allowComment)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//kagura:allow ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				ac := &allowComment{
					pos:    pkg.Fset.Position(c.Pos()),
					reason: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), fields[0])),
				}
				for _, name := range strings.Split(fields[0], ",") {
					ac.checks = append(ac.checks, &allowCheck{name: name})
				}
				lines := idx.byLine[ac.pos.Filename]
				if lines == nil {
					lines = make(map[int][]*allowComment)
					idx.byLine[ac.pos.Filename] = lines
				}
				lines[ac.pos.Line] = append(lines[ac.pos.Line], ac)
				idx.all = append(idx.all, ac)
			}
		}
	}
	return idx
}

// suppresses reports whether an annotation covers (analyzer, check) at the
// position, marking the matching check used.
func (idx *allowIndex) suppresses(pos token.Position, analyzer, check string) bool {
	lines, ok := idx.byLine[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, ac := range lines[line] {
			for _, c := range ac.checks {
				if c.name == check || c.name == analyzer {
					c.used = true
					return true
				}
			}
		}
	}
	return false
}

// unusedDiagnostics reports annotations that suppressed nothing and
// annotations missing a reason.
func (idx *allowIndex) unusedDiagnostics() []Diagnostic {
	var diags []Diagnostic
	for _, ac := range idx.all {
		if ac.reason == "" {
			diags = append(diags, Diagnostic{
				Pos:      ac.pos,
				Analyzer: UnusedAllowName,
				Check:    UnusedAllowName,
				Message:  "//kagura:allow must carry a reason explaining why the invariant holds anyway",
			})
		}
		for _, c := range ac.checks {
			if !c.used {
				diags = append(diags, Diagnostic{
					Pos:      ac.pos,
					Analyzer: UnusedAllowName,
					Check:    UnusedAllowName,
					Message:  fmt.Sprintf("//kagura:allow %s suppressed nothing; delete the stale annotation", c.name),
				})
			}
		}
	}
	return diags
}

// A Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File // non-test files only; test files are exempt by design
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	allow    *allowIndex
	diags    *[]Diagnostic
}

func newPass(a *Analyzer, pkg *Package, diags *[]Diagnostic, allow *allowIndex) *Pass {
	return &Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		analyzer: a,
		allow:    allow,
		diags:    diags,
	}
}

// Reportf records a finding unless a //kagura:allow annotation for check (or
// for the whole analyzer) covers its line or the line above.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.suppresses(position, p.analyzer.Name, check) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.analyzer.Name,
		Check:    check,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expr, or nil when untypechecked.
func (p *Pass) TypeOf(expr ast.Expr) types.Type { return p.Info.TypeOf(expr) }

// FuncOf resolves the called function of a call expression (a *types.Func for
// both plain and method calls), or nil for builtins, conversions, and calls
// through function-typed values.
func (p *Pass) FuncOf(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// A Suite runs a set of analyzers over packages, sharing one allow index per
// package so unused-suppression tracking spans all analyzers.
type Suite struct {
	Analyzers []*Analyzer
	// ReportUnusedAllow adds unusedallow diagnostics for annotations that
	// suppressed nothing across the whole suite and annotations without a
	// reason. Enable only when running every analyzer — a partial suite
	// makes legitimately-used annotations look stale.
	ReportUnusedAllow bool
}

// NewSuite returns a Suite over the given analyzers.
func NewSuite(analyzers []*Analyzer) *Suite {
	return &Suite{Analyzers: analyzers}
}

// RunPackage applies every analyzer to pkg and returns the new findings.
func (s *Suite) RunPackage(pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	allow := newAllowIndex(pkg)
	for _, a := range s.Analyzers {
		if err := a.Run(newPass(a, pkg, &diags, allow)); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	if s.ReportUnusedAllow {
		diags = append(diags, allow.unusedDiagnostics()...)
	}
	SortDiagnostics(diags)
	return diags, nil
}

// RunAnalyzers applies every analyzer to pkg and returns the new findings.
func RunAnalyzers(analyzers []*Analyzer, pkg *Package) ([]Diagnostic, error) {
	return NewSuite(analyzers).RunPackage(pkg)
}

// SortDiagnostics orders findings by position then analyzer, so output is
// stable regardless of analyzer-internal iteration order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
