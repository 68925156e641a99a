package graph_test

import (
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// TestEachEdgeSlotMatchesIndexOf is the oracle for the slot-pair walk: on
// every edge of the four presets, both slots equal IndexOf's binary
// search, the (u, v) sequence equals EachEdge's, and returning false stops
// the walk at once.
func TestEachEdgeSlotMatchesIndexOf(t *testing.T) {
	for _, name := range gen.PresetNames() {
		t.Run(name, func(t *testing.T) {
			preset, err := gen.PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			generator, err := preset.Generator(0.02)
			if err != nil {
				t.Fatal(err)
			}
			g, err := generator.Generate(rng.NewSeed(7, 8))
			if err != nil {
				t.Fatal(err)
			}
			want := g.Edges()
			var got []graph.Edge
			g.EachEdgeSlot(func(u, v, uv, vu int) bool {
				if iuv := g.IndexOf(u, v); uv != iuv {
					t.Fatalf("edge (%d,%d): uv = %d, IndexOf = %d", u, v, uv, iuv)
				}
				if ivu := g.IndexOf(v, u); vu != ivu {
					t.Fatalf("edge (%d,%d): vu = %d, IndexOf = %d", u, v, vu, ivu)
				}
				got = append(got, graph.Edge{U: u, V: v})
				return true
			})
			if len(got) != len(want) || len(got) != g.M() {
				t.Fatalf("%d edges walked, EachEdge has %d, M = %d", len(got), len(want), g.M())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("edge %d: EachEdgeSlot %v, EachEdge %v", i, got[i], want[i])
				}
			}

			stop := len(want) / 2
			calls := 0
			g.EachEdgeSlot(func(u, v, uv, vu int) bool {
				calls++
				return calls < stop
			})
			if calls != stop {
				t.Fatalf("walk made %d calls after returning false at call %d", calls, stop)
			}
		})
	}
}
