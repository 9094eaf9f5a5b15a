package lint_test

import (
	"testing"

	"kagura/internal/lint"
	"kagura/internal/lint/linttest"
)

// TestBoundedDecode runs the fixture: make() sized by raw wire reads is
// flagged (including the lower-bound-only guard); counts bounded by the
// reader helper or a real comparison pass.
func TestBoundedDecode(t *testing.T) {
	linttest.Run(t, lint.BoundedDecode, "testdata/src/boundeddecode", "kagura/internal/decodefixture")
}
