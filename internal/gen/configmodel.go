package gen

import (
	"fmt"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// PowerLawConfig generates a simple graph whose degree sequence is drawn
// from a discrete power law P(d) ∝ d^(-Gamma) on [MinDeg, MaxDeg], wired
// with the configuration model (stub matching with self-loop/multi-edge
// rejection). It matches the heavy-tailed-but-not-BA degree profiles of
// the Slashdot/Twitter-like presets, where the exponent and degree cut-off
// can be calibrated independently of the edge count.
type PowerLawConfig struct {
	N      int     // number of nodes
	MinDeg int     // minimum degree
	MaxDeg int     // maximum degree
	Gamma  float64 // power-law exponent (> 1)
}

var _ Generator = PowerLawConfig{}

// Name implements Generator.
func (g PowerLawConfig) Name() string {
	return fmt.Sprintf("plconf(n=%d,deg=[%d,%d],gamma=%.2f)", g.N, g.MinDeg, g.MaxDeg, g.Gamma)
}

// Generate implements Generator.
func (g PowerLawConfig) Generate(seed rng.Seed) (*graph.Graph, error) {
	r := seed.Rand()
	degs, err := rng.PowerLawDegrees(r, g.N, g.MinDeg, g.MaxDeg, g.Gamma)
	if err != nil {
		return nil, fmt.Errorf("gen: power-law degrees: %w", err)
	}

	// Stub list: node u appears degs[u] times.
	total := 0
	for _, d := range degs {
		total += d
	}
	stubs := make([]int32, 0, total)
	for u, d := range degs {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(u))
		}
	}
	rng.Shuffle(r, stubs)

	// Match consecutive stub pairs, ignoring a trailing odd stub;
	// self-loops and duplicate edges are dropped, which slightly truncates
	// the degree sequence — the standard "erased configuration model".
	return graph.FromPairs(g.N, stubs[:len(stubs)&^1])
}
