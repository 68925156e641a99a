package serv

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/accu-sim/accu/internal/sim"
)

// TestBuildResultOrderFree pins that a result depends on the record set
// alone. The cells of one grid are collected in shuffled orders, and
// split into ranges that arrive in shuffled order (the shape of a
// distributed grid, or of a resumed journal followed by fresh cells);
// every order must give byte-identical BuildResult JSON, Welford
// snapshots included. A cell's records keep their roster order, as every
// collect path delivers them.
func TestBuildResultOrderFree(t *testing.T) {
	cautious := 10
	spec := Spec{
		Preset:   "slashdot",
		Scale:    0.02,
		Cautious: &cautious,
		Policies: []PolicySpec{{Name: "abm"}, {Name: "random"}},
		Networks: 2,
		Runs:     8,
		K:        20,
		Seed:     11,
	}
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([][]sim.Record, spec.Networks*spec.Runs)
	err = sim.Run(context.Background(), protocol, factories, func(r sim.Record) {
		c := r.Network*spec.Runs + r.Run
		cells[c] = append(cells[c], r)
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(order [][]sim.Record) string {
		digest, summary := sim.NewRecordDigest(), sim.NewSummary(nil)
		for _, cell := range order {
			for _, r := range cell {
				digest.Collect(r)
				summary.Collect(r)
			}
		}
		out, err := json.Marshal(BuildResult(digest, summary))
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want := build(cells)

	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		order := make([][]sim.Record, 0, len(cells))
		if trial%2 == 0 {
			for _, c := range rnd.Perm(len(cells)) {
				order = append(order, cells[c])
			}
		} else {
			const span = 3
			for _, r := range rnd.Perm((len(cells) + span - 1) / span) {
				order = append(order, cells[r*span:min((r+1)*span, len(cells))]...)
			}
		}
		if got := build(order); got != want {
			t.Fatalf("trial %d: result differs from canonical cell order:\n got %s\nwant %s", trial, got, want)
		}
	}
}
