package faultinject

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pointName is the shape of a point name: dot-separated lowercase segments,
// package first ("simsvc.warmstart.fork").
var pointName = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)+$`)

// Chaos plans and runbooks spell these names by hand, so the registry must
// list each point once, under a well-formed name. newPoint panics on a
// duplicate at init; this also catches a handle filed under the wrong name.
func TestRegisteredSortedUnique(t *testing.T) {
	pts := Points()
	if len(pts) != len(points) {
		t.Fatalf("Points() lists %d of %d points", len(pts), len(points))
	}
	for i, p := range pts {
		if i > 0 && pts[i-1].Name() >= p.Name() {
			t.Errorf("Points() not sorted and unique at %q", p.Name())
		}
		if !pointName.MatchString(p.Name()) {
			t.Errorf("point name %q is malformed", p.Name())
		}
		if points[p.Name()] != p {
			t.Errorf("point %q is registered under another name", p.Name())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("newPoint accepted a duplicate name")
		}
	}()
	newPoint(SimsvcCompute.Name())
}

// A plan naming a point the binary does not declare is a typo that would
// otherwise inject nothing while the operator believes chaos is armed.
func TestEnableRejectsUnknownPoint(t *testing.T) {
	for _, name := range []string{"nope", "simsvc.computer", "ckpt", "test"} {
		err := Enable(Plan{Seed: 1, Rules: []Rule{{Point: name, Kind: KindError, Nth: 1}}})
		if err == nil || !strings.Contains(err.Error(), "unknown point") {
			Disable()
			t.Errorf("Enable accepted a rule for undeclared point %q (err %v)", name, err)
		}
	}
	if Enabled() {
		t.Fatal("rejected plan left injection armed")
	}
	arm(t, Plan{Seed: 1, Rules: []Rule{{Point: SimsvcCompute.Name(), Kind: KindError, Nth: 1}}})
}

// TestEveryPointIsFired scans the module's non-test sources: each point the
// registry declares must be referenced by some package outside faultinject,
// or it is a stale entry that chaos plans could arm to no effect.
func TestEveryPointIsFired(t *testing.T) {
	declared := registryVars(t)
	used := make(map[string]bool)
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "faultinject" ||
				strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "faultinject" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, name := range declared {
		if !used[v] {
			t.Errorf("fault point %q (faultinject.%s) is fired by no package; delete it or instrument its site", name, v)
		}
	}
}

// registryVars parses registry.go and returns each point variable's name
// mapped to its point name. Every newPoint argument there must be a string
// literal, so the registry reads as the list of names plans may target.
func registryVars(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "registry.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	vars := make(map[string]string)
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, v := range vs.Values {
			call, ok := v.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("registry entry %s is not a string literal", vs.Names[i].Name)
				continue
			}
			vars[vs.Names[i].Name] = strings.Trim(lit.Value, `"`)
		}
		return false
	})
	declared := 0
	for name := range points {
		if !strings.HasPrefix(name, "test.") {
			declared++
		}
	}
	if len(vars) != declared {
		t.Fatalf("registry.go declares %d points, the registry holds %d", len(vars), declared)
	}
	return vars
}
