package deadexport

import (
	"strings"
	"testing"

	"mscfpq/internal/analysis/analysistest"
)

// fixtureAllow keeps one unreferenced name and holds two stale entries:
// one whose name has a caller, one whose name does not exist.
var fixtureAllow = map[string]string{
	"deadex/internal/lib.Kept":  "item 1",
	"deadex/internal/lib.Stale": "item 2",
	"deadex/internal/lib.Gone":  "item 3",
}

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, newAnalyzer(fixtureAllow),
		"deadex", "deadex/examples/demo", "deadex/internal/lib", "deadex/internal/app",
		"deadex/internal/gen", "deadex/internal/obs", "deadex/cmd/tool")
}

// TestSilentWithoutTests: with no test file loaded, a name only tests
// call would read as dead, so nothing is reported.
func TestSilentWithoutTests(t *testing.T) {
	analysistest.Run(t, Analyzer, "deadexnotests/internal/lib")
}

// TestAllowlistPolicy: at most five names, each tied to a ROADMAP item.
func TestAllowlistPolicy(t *testing.T) {
	if len(allowlist) > 5 {
		t.Fatalf("allowlist holds %d names, at most 5 allowed", len(allowlist))
	}
	for name, why := range allowlist {
		if !strings.Contains(why, "ROADMAP item") {
			t.Errorf("allowlist entry %s does not name the ROADMAP item that gives it a caller: %q", name, why)
		}
	}
}
