package gen

import (
	"math/rand/v2"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// builderPowerLaw is PowerLawConfig.Generate on the Builder path: every
// stub pair goes through AddEdge, which rejects self-loops and repeats.
func builderPowerLaw(t *testing.T, g PowerLawConfig, seed rng.Seed) *graph.Graph {
	t.Helper()
	r := seed.Rand()
	degs, err := rng.PowerLawDegrees(r, g.N, g.MinDeg, g.MaxDeg, g.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	var stubs []int32
	for u, d := range degs {
		for range d {
			stubs = append(stubs, int32(u))
		}
	}
	rng.Shuffle(r, stubs)
	b := graph.NewBuilder(g.N)
	for i := 0; i+1 < len(stubs); i += 2 {
		if _, err := b.AddEdge(int(stubs[i]), int(stubs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	return b.Freeze()
}

// builderCollaboration is Collaboration.Generate on the Builder path: it
// draws the same communities and the same coins and adds each accepted
// pair with AddEdge.
func builderCollaboration(t *testing.T, g Collaboration, seed rng.Seed) *graph.Graph {
	t.Helper()
	src := seed.PCG()
	r := rand.New(src)
	var communities [][]int32
	for next := 0; next < g.N; {
		size, err := sampleCommunitySize(r, g.MeanCommunity, 10*g.MeanCommunity)
		if err != nil {
			t.Fatal(err)
		}
		size = min(size, g.N-next)
		members := make([]int32, size)
		for i := range members {
			members[i] = int32(next + i)
		}
		communities = append(communities, members)
		next += size
	}
	for u := 0; u < g.N; u++ {
		if rng.Bernoulli(src, g.PBridge) {
			c := r.IntN(len(communities))
			communities[c] = append(communities[c], int32(u))
		}
	}
	b := graph.NewBuilder(g.N)
	for _, members := range communities {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if members[i] != members[j] && rng.Bernoulli(src, g.PIntra) {
					if _, err := b.AddEdge(int(members[i]), int(members[j])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return b.Freeze()
}

// TestOfflineGeneratorsMatchBuilderPath checks that the two generators
// that build through graph.FromPairs give, seed for seed, the CSR that the
// Builder path gives: on the slashdot, twitter and dblp presets at ×0.02,
// and on small, repeat-heavy parameters (a dense power law on few nodes;
// communities with every node bridging).
func TestOfflineGeneratorsMatchBuilderPath(t *testing.T) {
	type genCase struct {
		name    string
		gen     Generator
		builder func(rng.Seed) *graph.Graph
	}
	var cases []genCase
	addPL := func(name string, g PowerLawConfig) {
		cases = append(cases, genCase{name, g, func(s rng.Seed) *graph.Graph { return builderPowerLaw(t, g, s) }})
	}
	addCollab := func(name string, g Collaboration) {
		cases = append(cases, genCase{name, g, func(s rng.Seed) *graph.Graph { return builderCollaboration(t, g, s) }})
	}
	for _, name := range []string{"slashdot", "twitter", "dblp"} {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := p.Generator(0.02)
		if err != nil {
			t.Fatal(err)
		}
		switch g := g.(type) {
		case PowerLawConfig:
			addPL(name, g)
		case Collaboration:
			addCollab(name, g)
		default:
			t.Fatalf("%s: generator %T is not an offline generator", name, g)
		}
	}
	addPL("dense-powerlaw", PowerLawConfig{N: 12, MinDeg: 3, MaxDeg: 11, Gamma: 1.5})
	addCollab("all-bridges", Collaboration{N: 40, MeanCommunity: 4, PIntra: 0.9, PBridge: 1})
	for _, c := range cases {
		for i := uint64(0); i < 4; i++ {
			got, err := c.gen.Generate(seed(i))
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, i, err)
			}
			want := c.builder(seed(i))
			if got.M() != want.M() || csrDigest(got) != csrDigest(want) {
				t.Errorf("%s seed %d: CSR (M=%d) differs from the Builder path (M=%d)",
					c.name, i, got.M(), want.M())
			}
		}
	}
}
