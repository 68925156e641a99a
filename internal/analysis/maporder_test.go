package analysis_test

import (
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

// stubDeps maps the production import paths the analyzers key on to the
// fixture stub packages.
var stubDeps = map[string]string{
	"example.test/internal/rng":    "testdata/src/rng_stub",
	"example.test/internal/obs":    "testdata/src/obs_stub",
	"example.test/internal/core":   "testdata/src/core_stub",
	"example.test/internal/report": "testdata/src/report_stub",
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder(), analysistest.Fixture{
		Dir:        "testdata/src/maporder_core",
		ImportPath: "example.test/internal/core",
		Deps:       stubDeps,
	})
}

// TestMapOrderOutOfScope: the same hazards outside the deterministic
// packages are not maporder's business.
func TestMapOrderOutOfScope(t *testing.T) {
	_, _, diags := analysistest.Diagnostics(t, analysis.MapOrder(), analysistest.Fixture{
		Dir:        "testdata/src/maporder_core",
		ImportPath: "example.test/internal/stats",
		Deps:       stubDeps,
	})
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, want 0", len(diags))
	}
}
