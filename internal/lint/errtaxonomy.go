package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrTaxonomy enforces the error-taxonomy contract from DESIGN.md §10.3: every
// error that can cross the simsvc HTTP boundary must be classifiable by
// Classify into a stable ErrorCode, because clients key retry policy off the
// code, not the message. Two ways errors escape the taxonomy, both caught
// here:
//
//   - a wrapping fmt.Errorf that passes an error argument without %w breaks
//     the errors.Is/As chain Classify walks, so the sentinel inside becomes
//     invisible and the error falls through to the catch-all code;
//   - a package-level error sentinel (var X = errors.New(...)) or an
//     error-implementing named type that Classify never mentions is a
//     category the taxonomy silently lacks — it compiles, serves, and maps
//     to "internal" forever.
//
// The analyzer is scoped to kagura/internal/simsvc, the package that owns
// the boundary and the classifier.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Doc:  "require simsvc boundary errors to be classifiable: wrap with %w, map every sentinel and error type in Classify",
	Run:  runErrTaxonomy,
}

// simsvcPath is the package that owns the HTTP boundary and Classify.
const simsvcPath = "kagura/internal/simsvc"

func runErrTaxonomy(pass *Pass) error {
	if pass.Pkg.Path() != simsvcPath {
		return nil
	}
	classified := classifyReferences(pass)
	checkSentinelsMapped(pass, classified)
	checkWrapDirectives(pass)
	return nil
}

// classifyReferences collects every object Classify's body mentions — the
// sentinels, types, and helpers the taxonomy knows about.
func classifyReferences(pass *Pass) map[types.Object]bool {
	refs := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Classify" || fd.Recv != nil || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						refs[obj] = true
					}
				}
				return true
			})
		}
	}
	return refs
}

// checkSentinelsMapped reports package-level error sentinels and
// error-implementing named types that Classify never references.
func checkSentinelsMapped(pass *Pass, classified map[types.Object]bool) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj := pass.Info.Defs[name]
						if obj == nil || !types.Implements(obj.Type(), errType) {
							continue
						}
						if !classified[obj] {
							pass.Reportf(name.Pos(), "errtaxonomy",
								"error sentinel %s is not referenced in Classify; it will fall through to the catch-all code — add it to the taxonomy", name.Name)
						}
					}
				}
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					obj := pass.Info.Defs[ts.Name]
					if obj == nil {
						continue
					}
					t := obj.Type()
					if !types.Implements(t, errType) && !types.Implements(types.NewPointer(t), errType) {
						continue
					}
					if !classified[obj] {
						pass.Reportf(ts.Name.Pos(), "errtaxonomy",
							"error type %s is not referenced in Classify; values of it will fall through to the catch-all code — add an errors.As arm", ts.Name.Name)
					}
				}
			}
		}
	}
}

// checkWrapDirectives reports fmt.Errorf calls that pass an error argument
// without a %w directive in a literal format.
func checkWrapDirectives(pass *Pass) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.FuncOf(call)
			if fn == nil || fn.Name() != "Errorf" || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			format, ok := stringLiteral(call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				t := pass.TypeOf(arg)
				if t != nil && types.Implements(t, errType) {
					pass.Reportf(arg.Pos(), "errtaxonomy",
						"fmt.Errorf passes an error without %%w; the wrapped sentinel becomes invisible to Classify's errors.Is/As chain — use %%w or classify at this site")
					return true
				}
			}
			return true
		})
	}
}

// stringLiteral unquotes e if it is a plain string literal.
func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
