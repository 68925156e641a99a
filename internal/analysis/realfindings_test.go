package analysis_test

import (
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
)

// TestRealTreeSuppressedFindings loads the real engine and service
// packages and audits them with RunAnalyzersAll: every //accu:allow in
// the tree must still cover a live finding (the analyzers keep detecting
// the annotated sites), and nothing unsuppressed may have crept in. If
// an annotated site is refactored away, the stale directive shows up
// here; if an analyzer regresses and stops seeing the site, that shows
// up too.
func TestRealTreeSuppressedFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the real packages")
	}
	// Per package: analyzer name → {message fragment → expected count}.
	pins := map[string]map[string]map[string]int{
		"github.com/accu-sim/accu/internal/sim": {
			"seedflow": {"reaches 2 sinks": 1},
		},
		// PresetNames collects map keys into a slice and sorts it.
		"github.com/accu-sim/accu/internal/gen": {
			"maporder": {"appends to a slice": 1},
		},
		// The coordinator and the job service hold no allowed findings;
		// empty pin sets keep them in the nothing-unsuppressed sweep.
		"github.com/accu-sim/accu/internal/dist": {},
		"github.com/accu-sim/accu/internal/serv": {},
		// Regression pins: errdrop surfaced a discarded
		// (Coordinator).Close — a swallowed final fsync — on accudist's
		// serve-error path, and wiretag surfaced sim.Record (the journal
		// line payload) relying on encoding/json field-name fallback.
		// Both are fixed; an empty pin set keeps the package in the
		// nothing-unsuppressed sweep so the bugs cannot return. The
		// stats entry keeps the sketch/welford package in the same sweep.
		"github.com/accu-sim/accu/cmd/accudist":   {},
		"github.com/accu-sim/accu/internal/stats": {},
	}
	for path, pinned := range pins {
		t.Run(path[strings.LastIndex(path, "/")+1:], func(t *testing.T) {
			pkgs, err := analysis.Load("", path)
			if err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("got %d packages, want 1", len(pkgs))
			}
			diags, err := analysis.RunAnalyzersAll(pkgs[0], analysis.NewSuite())
			if err != nil {
				t.Fatal(err)
			}
			for analyzer, fragments := range pinned {
				for fragment, want := range fragments {
					got := 0
					for _, d := range diags {
						if d.Analyzer == analyzer && d.Suppressed && strings.Contains(d.Message, fragment) {
							got++
						}
					}
					if got != want {
						t.Errorf("suppressed %s findings matching %q in %s: got %d, want %d; an //accu:allow site moved or the analyzer regressed", analyzer, fragment, path, got, want)
					}
				}
			}
			for _, d := range diags {
				if !d.Suppressed {
					pos := pkgs[0].Fset.Position(d.Pos)
					t.Errorf("unsuppressed finding in %s: %s: %s [%s]", path, pos, d.Message, d.Analyzer)
				}
			}
		})
	}
}
