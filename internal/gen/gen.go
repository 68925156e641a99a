// Package gen provides synthetic social-network generators that stand in
// for the SNAP datasets used by the paper (the module is offline, so the
// real datasets cannot be fetched). Each generator is deterministic given
// a seed, and the presets in presets.go are calibrated to the node/edge
// counts of Table I together with the qualitative structure the paper's
// analysis leans on (heavy-tailed degrees, clustering, communities).
package gen

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// ErrBadParam is returned by generators for invalid parameter values.
var ErrBadParam = errors.New("gen: invalid parameter")

// Generator produces a graph from a seed. Implementations must be
// deterministic: the same seed yields the same graph.
type Generator interface {
	// Generate builds one sample network.
	Generate(seed rng.Seed) (*graph.Graph, error)
	// Name identifies the generator for logs and experiment records.
	Name() string
}

// ErdosRenyi generates G(n, m): n nodes and exactly m distinct uniform
// random edges.
type ErdosRenyi struct {
	N int // number of nodes
	M int // number of edges
}

var _ Generator = ErdosRenyi{}

// Name implements Generator.
func (g ErdosRenyi) Name() string { return fmt.Sprintf("er(n=%d,m=%d)", g.N, g.M) }

// Generate implements Generator.
func (g ErdosRenyi) Generate(seed rng.Seed) (*graph.Graph, error) {
	maxM := g.N * (g.N - 1) / 2
	if g.N < 0 || g.M < 0 || g.M > maxM {
		return nil, fmt.Errorf("%w: er n=%d m=%d", ErrBadParam, g.N, g.M)
	}
	r := seed.Rand()
	ends := make([]int32, 0, 2*g.M)
	drawn := make(map[[2]int32]bool, g.M)
	for len(ends) < 2*g.M {
		u, v := int32(r.IntN(g.N)), int32(r.IntN(g.N))
		key := [2]int32{min(u, v), max(u, v)}
		if u == v || drawn[key] {
			continue
		}
		drawn[key] = true
		ends = append(ends, u, v)
	}
	return graph.FromPairs(g.N, ends)
}

// HolmeKim generates a Barabási–Albert graph with triad formation: after
// each preferential attachment, with probability PTriad the next link
// closes a triangle with a neighbor of the previous target. This yields
// the high clustering of real friendship networks (used for the
// Facebook-like preset). PTriad = 0 is plain Barabási–Albert: each new
// node attaches to MAttach existing nodes chosen proportionally to degree.
type HolmeKim struct {
	N       int     // number of nodes
	MAttach int     // edges added per new node
	PTriad  float64 // triad-formation probability
}

var _ Generator = HolmeKim{}

// Name implements Generator.
func (g HolmeKim) Name() string {
	return fmt.Sprintf("hk(n=%d,m=%d,pt=%.2f)", g.N, g.MAttach, g.PTriad)
}

// Generate implements Generator.
func (g HolmeKim) Generate(seed rng.Seed) (*graph.Graph, error) {
	if g.PTriad < 0 || g.PTriad > 1 {
		return nil, fmt.Errorf("%w: hk pTriad=%v", ErrBadParam, g.PTriad)
	}
	return generatePA(seed, g.N, g.MAttach, g.PTriad)
}

// generatePA is the shared preferential-attachment core: pTriad = 0 gives
// plain Barabási–Albert. The endpoint list holds every edge once, so it
// gives O(1) sampling proportional to degree and is the pair list of the
// finished graph.
func generatePA(seed rng.Seed, n, mAttach int, pTriad float64) (*graph.Graph, error) {
	if n < 1 || mAttach < 1 || mAttach >= n {
		return nil, fmt.Errorf("%w: pa n=%d mAttach=%d", ErrBadParam, n, mAttach)
	}
	r := seed.Rand()
	adj := make([][]int32, n) // parallel adjacency for O(1) neighbor sampling
	endpoints := make([]int32, 0, 2*n*mAttach)
	addEdge := func(u, v int32) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		endpoints = append(endpoints, u, v)
	}

	// Seed clique of mAttach+1 nodes.
	seedSize := mAttach + 1
	for u := 0; u < seedSize; u++ {
		for v := u + 1; v < seedSize; v++ {
			addEdge(int32(u), int32(v))
		}
	}

	// While u attaches, its edges are exactly the targets in adj[u]: no
	// later node has attached to it yet.
	for u := seedSize; u < n; u++ {
		lastTarget := int32(-1)
		for len(adj[u]) < mAttach {
			var target int32
			if lastTarget >= 0 && pTriad > 0 && r.Float64() < pTriad {
				// Triad step: connect to a random neighbor of the last
				// target that we are not already connected to.
				target = pickTriadTarget(adj, r, lastTarget, u)
				if target < 0 {
					target = endpoints[r.IntN(len(endpoints))]
				}
			} else {
				target = endpoints[r.IntN(len(endpoints))]
			}
			if int(target) == u || slices.Contains(adj[u], target) {
				continue
			}
			addEdge(int32(u), target)
			lastTarget = target
		}
	}
	return graph.FromPairs(n, endpoints)
}

// pickTriadTarget returns a random neighbor of lastTarget not yet linked
// to u, or -1 if a few tries fail (the caller falls back to preferential
// attachment, as in the Holme–Kim construction).
func pickTriadTarget(adj [][]int32, r *rand.Rand, lastTarget int32, u int) int32 {
	nbrs := adj[lastTarget]
	if len(nbrs) == 0 {
		return -1
	}
	const tries = 4
	for i := 0; i < tries; i++ {
		cand := nbrs[r.IntN(len(nbrs))]
		if int(cand) != u && !slices.Contains(adj[u], cand) {
			return cand
		}
	}
	return -1
}
