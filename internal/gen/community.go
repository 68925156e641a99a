package gen

import (
	"fmt"
	"math/rand/v2"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// Collaboration generates a DBLP-like collaboration network: nodes are
// partitioned into communities whose sizes follow a power law; within a
// community nodes are densely wired (papers ≈ small cliques), and a
// fraction of nodes act as bridges joining a second community. The
// result reproduces the traits the paper's DBLP discussion relies on —
// many medium-high-degree nodes (prolific authors) instead of a few
// extreme hubs, and strong local clustering.
type Collaboration struct {
	N int // number of nodes
	// MeanCommunity is the mean community size (power-law sizes with
	// exponent ~2.5 truncated to [3, 10*MeanCommunity]).
	MeanCommunity int
	// PIntra is the within-community link probability.
	PIntra float64
	// PBridge is the probability that a node joins a second community.
	PBridge float64
}

var _ Generator = Collaboration{}

// Name implements Generator.
func (g Collaboration) Name() string {
	return fmt.Sprintf("collab(n=%d,mc=%d,pi=%.2f,pb=%.2f)", g.N, g.MeanCommunity, g.PIntra, g.PBridge)
}

// Generate implements Generator.
func (g Collaboration) Generate(seed rng.Seed) (*graph.Graph, error) {
	if g.N < 1 || g.MeanCommunity < 2 || g.PIntra <= 0 || g.PIntra > 1 || g.PBridge < 0 || g.PBridge > 1 {
		return nil, fmt.Errorf("%w: collab %+v", ErrBadParam, g)
	}
	src := seed.PCG()
	r := rand.New(src)

	// Carve the node range into communities with power-law sizes.
	var communities [][]int32
	next := 0
	maxSize := 10 * g.MeanCommunity
	for next < g.N {
		size, err := sampleCommunitySize(r, g.MeanCommunity, maxSize)
		if err != nil {
			return nil, err
		}
		if next+size > g.N {
			size = g.N - next
		}
		members := make([]int32, size)
		for i := range members {
			members[i] = int32(next + i)
		}
		communities = append(communities, members)
		next += size
	}

	// Bridge nodes join one extra, uniformly random community.
	for u := 0; u < g.N; u++ {
		if rng.Bernoulli(src, g.PBridge) {
			c := r.IntN(len(communities))
			communities[c] = append(communities[c], int32(u))
		}
	}

	// Accepted pairs go to an endpoint list, sized for the expected
	// number of them; FromPairs drops the pairs that two shared
	// communities repeat.
	pairs := 0
	for _, members := range communities {
		pairs += len(members) * (len(members) - 1) / 2
	}
	ends := make([]int32, 0, 2*int(float64(pairs)*g.PIntra))
	for _, members := range communities {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if members[i] == members[j] {
					continue
				}
				if rng.Bernoulli(src, g.PIntra) {
					ends = append(ends, members[i], members[j])
				}
			}
		}
	}
	return graph.FromPairs(g.N, ends)
}

// sampleCommunitySize draws one power-law community size in [3, maxSize]
// with mean roughly meanSize.
func sampleCommunitySize(r interface{ Float64() float64 }, meanSize, maxSize int) (int, error) {
	// A Pareto-ish draw: size = 3 + floor(meanSize * (u^{-0.5} - 1) / 2),
	// clipped. Mean is on the order of meanSize for typical values.
	u := r.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	size := 3 + int(float64(meanSize)*(1/(u+0.35)-1)/2)
	if size < 3 {
		size = 3
	}
	if size > maxSize {
		size = maxSize
	}
	return size, nil
}
