package exp

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
)

// TestRunWarnsOnDroppedJournalCells corrupts the second line of a
// four-cell journal and resumes: the two valid cells after it are
// discarded and re-run, and run says so on stderr, as accurun, accuserv
// and accudist do.
func TestRunWarnsOnDroppedJournalCells(t *testing.T) {
	setup := osn.DefaultSetup()
	setup.NumCautious = 5
	p := sim.Protocol{
		Gen:      gen.ErdosRenyi{N: 200, M: 2000},
		Setup:    setup,
		Networks: 1,
		Runs:     4,
		K:        10,
		Seed:     rng.NewSeed(7, 11),
		Workers:  1,
	}
	abm, err := sim.ABMFactory(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	factories := []sim.PolicyFactory{abm}
	c := Config{CheckpointDir: t.TempDir()}
	if err := c.run(context.Background(), "grid", p, factories, func(sim.Record) {}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(c.CheckpointDir, "grid.jsonl")
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(content, []byte("\n"))
	lines[1] = []byte("{corrupt}\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	c.Resume = true
	records := 0
	err = c.run(context.Background(), "grid", p, factories, func(sim.Record) { records++ })
	os.Stderr = stderr
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if records != p.Runs {
		t.Errorf("resumed grid collected %d records, want %d", records, p.Runs)
	}
	if !strings.Contains(string(out), "discarded 2 valid completed cell(s)") {
		t.Errorf("stderr = %q, want a warning about the 2 discarded cells", out)
	}
}
