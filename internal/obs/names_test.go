package obs

import (
	"regexp"
	"testing"
)

// familyName is the catalog's name shape: kagura_, then lowercase letters,
// digits and underscores, not ending in an underscore.
var familyName = regexp.MustCompile(`^kagura_[a-z0-9_]*[a-z0-9]$`)

// Every catalogued family has a well-formed name, a HELP text, and a name no
// other family uses: two families under one name would render two TYPE
// lines for it, which Prometheus rejects.
func TestCatalogNamesWellFormedAndUnique(t *testing.T) {
	if len(catalog) == 0 {
		t.Fatal("empty catalog")
	}
	seen := make(map[string]bool, len(catalog))
	for _, f := range catalog {
		if !familyName.MatchString(f.name) {
			t.Errorf("family name %q is malformed", f.name)
		}
		if f.help == "" {
			t.Errorf("family %s has no HELP text", f.name)
		}
		if seen[f.name] {
			t.Errorf("family name %q is declared twice", f.name)
		}
		seen[f.name] = true
	}
	if names := KnownMetricNames(); len(names) != len(catalog) || names[0] != MetricJobsTotal.Name() {
		t.Fatalf("KnownMetricNames does not follow the catalog: %v", names)
	}
}
