package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// Every experiment's table at the quick preset is pinned byte for byte.
// The files under testdata/quick were written by
// `kagura-bench -quick -out internal/experiments/testdata/quick`; a change
// to which simulations a runner needs, the order it aggregates them in, or
// its float arithmetic shows up here as a diff.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at the quick preset")
	}
	for _, id := range IDs() {
		r, err := sharedLab.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, id, r)
	}
}

// checkGolden compares r's rendered table with testdata/quick/<id>.txt.
func checkGolden(t *testing.T, id string, r Renderable) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "quick", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Render().String(); got != string(want) {
		t.Errorf("%s differs from testdata/quick/%s.txt:\n%s---\n%s", id, id, got, want)
	}
}
