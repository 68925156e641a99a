package analysis_test

import (
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

// TestAllowMultipleNames pins the multi-name //accu:allow form: one
// directive listing several analyzers suppresses exactly the named ones
// on the covered line. The fixture violates errdrop and seedflow on a
// single line; a two-name directive silences both, a one-name directive
// leaves the other analyzer's finding live. A directive that names an
// analyzer outside the suite is flagged at the directive, while the
// suite analyzer listed beside it stays suppressed.
func TestAllowMultipleNames(t *testing.T) {
	analysistest.RunAll(t,
		[]*analysis.Analyzer{analysis.ErrDrop(), analysis.SeedFlow()},
		analysistest.Fixture{
			Dir:        "testdata/src/allowmulti_sim",
			ImportPath: "example.test/internal/sim",
			Deps:       stubDeps,
		})
}
