package lint_test

import (
	"testing"

	"kagura/internal/lint"
)

// TestSuiteComplete pins the analyzer roster: DESIGN.md §8 documents exactly
// these, and CI cross-checks the section headings against kagura-vet -list.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"simdeterminism", "lockedblock", "mapiterorder", "floateq", "atomicwrite",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Fatalf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestRepositoryClean runs the full analyzer suite over every package in the
// module — the same gate as CI's `go run ./cmd/kagura-vet ./...` — so a
// finding fails plain `go test ./...` too, not just the vet job, and the
// unused-suppression report runs too.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis is slow; run without -short")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("pattern expansion found only %d packages: %v", len(paths), paths)
	}
	suite := lint.NewSuite(lint.All())
	suite.ReportUnusedAllow = true
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := suite.RunPackage(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}
