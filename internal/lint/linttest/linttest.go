// Package linttest runs lint analyzers over fixture packages, in the style
// of golang.org/x/tools/go/analysis/analysistest: fixture files carry
// expectations as trailing comments
//
//	time.Now() // want `wall-clock`
//
// where the backquoted (or quoted) text is a regexp that must match a
// diagnostic reported on that line. Every expectation must be matched by
// exactly one diagnostic and every diagnostic must match an expectation;
// anything else fails the test. A fixture with no want comments therefore
// asserts the analyzer stays silent — that is how allowlisted patterns are
// proven accepted.
package linttest

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"kagura/internal/lint"
)

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run checks one analyzer against the fixture package in dir, typechecked
// under the given import path (the path matters: simdeterminism keys its
// applicability on it).
func Run(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	pkg, err := loader.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("linttest: loading fixture %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	diags, err := lint.RunAnalyzers([]*lint.Analyzer{a}, pkg)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	for _, d := range diags {
		if !consume(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

// collectWants extracts `// want "re"` expectations from the fixture,
// sorted by position for stable failure output.
func collectWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(rest) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// splitPatterns parses a want payload: one or more strings, each backquoted
// or double-quoted.
func splitPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '`' && quote != '"' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		pats = append(pats, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	return pats
}

// consume matches d against an unmatched want on its line.
func consume(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
