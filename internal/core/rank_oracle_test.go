package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/pagerank"
	"github.com/accu-sim/accu/internal/rng"
)

// stableDegreeOrder is the reference MaxDegree order: a stable sort of the
// identity by descending degree, so ties keep ascending ids.
func stableDegreeOrder(g *graph.Graph) []int {
	order := identity(g.N())
	sort.SliceStable(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
	return order
}

// stableScoreOrder is the reference PageRank order: a stable sort of the
// identity by descending score.
func stableScoreOrder(scores []float64) []int {
	order := identity(len(scores))
	sort.SliceStable(order, func(i, j int) bool {
		return scores[order[i]] > scores[order[j]]
	})
	return order
}

// rankOracleGraphs returns tie-heavy graphs: the empty graph, isolated
// nodes, a star, a ring lattice (every degree equal), a star beside
// isolated nodes, and every preset at ×0.02.
func rankOracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"empty":    buildGraph(t, 0, nil),
		"isolated": buildGraph(t, 9, nil),
	}
	var star, ring, starIsolated [][2]int
	for v := 1; v < 30; v++ {
		star = append(star, [2]int{0, v})
	}
	for u := 0; u < 40; u++ {
		ring = append(ring, [2]int{u, (u + 1) % 40}, [2]int{u, (u + 2) % 40})
	}
	for v := 6; v < 12; v++ {
		starIsolated = append(starIsolated, [2]int{5, v})
	}
	gs["star"] = buildGraph(t, 30, star)
	gs["ring-lattice"] = buildGraph(t, 40, ring)
	gs["star-isolated"] = buildGraph(t, 20, starIsolated)
	for _, name := range gen.PresetNames() {
		p, err := gen.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		generator, err := p.Generator(0.02)
		if err != nil {
			t.Fatal(err)
		}
		g, err := generator.Generate(rng.NewSeed(11, 0))
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("%s-x0.02", name)] = g
	}
	return gs
}

// TestStaticRankOrdersMatchStableSort requires the MaxDegree and PageRank
// baselines to order every tie-heavy graph exactly as the stable sort of
// the identity does.
func TestStaticRankOrdersMatchStableSort(t *testing.T) {
	for name, g := range rankOracleGraphs(t) {
		got, err := NewMaxDegree().rank(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := stableDegreeOrder(g); !slices.Equal(got, want) {
			t.Errorf("%s: MaxDegree order differs from the stable sort", name)
		}

		scores, err := pagerank.Scores(g, pagerank.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err = NewPageRank().rank(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := stableScoreOrder(scores); !slices.Equal(got, want) {
			t.Errorf("%s: PageRank order differs from the stable sort", name)
		}
	}
}
