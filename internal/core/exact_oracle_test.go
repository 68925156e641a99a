package core

import (
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/theory"
)

// exactUser is one user of a hand-built oracle instance.
type exactUser struct {
	kind        osn.Kind
	q           float64 // reckless acceptance probability
	theta       int
	qLow, qHigh float64 // cautious acceptance below / at threshold
	bf, bfof    float64
}

// exactEdge is one potential edge with its existence probability.
type exactEdge struct {
	u, v int
	p    float64
}

func exactInstance(t *testing.T, users []exactUser, edges []exactEdge) *osn.Instance {
	t.Helper()
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		pairs[i] = [2]int{e.u, e.v}
	}
	g := buildGraph(t, len(users), pairs)
	n := len(users)
	p := osn.Params{
		Kind:       make([]osn.Kind, n),
		AcceptProb: make([]float64, n),
		Theta:      make([]int, n),
		BFriend:    make([]float64, n),
		BFof:       make([]float64, n),
		EdgeProb:   make([]float64, g.AdjSize()),
		QLow:       make([]float64, n),
		QHigh:      make([]float64, n),
	}
	for u, x := range users {
		p.Kind[u], p.AcceptProb[u], p.Theta[u] = x.kind, x.q, x.theta
		p.BFriend[u], p.BFof[u] = x.bf, x.bfof
		p.QLow[u], p.QHigh[u] = x.qLow, x.qHigh
	}
	for _, e := range edges {
		p.EdgeProb[g.IndexOf(e.u, e.v)] = e.p
		p.EdgeProb[g.IndexOf(e.v, e.u)] = e.p
	}
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// exactOracleInstances are two tiny instances whose realizations
// theory.EnumerateRealizations can list: one all-reckless, one with a
// deterministic (θ=2) and a soft (§III-B) cautious user. Edge and
// acceptance probabilities are asymmetric (p ≠ 1−p), so a coin drawn
// with the wrong polarity moves the expectation.
func exactOracleInstances(t *testing.T) map[string]*osn.Instance {
	r := func(q, bf, bfof float64) exactUser {
		return exactUser{kind: osn.Reckless, q: q, bf: bf, bfof: bfof}
	}
	return map[string]*osn.Instance{
		"reckless": exactInstance(t,
			[]exactUser{r(1, 3, 1), r(0.6, 2, 0.5), r(0.3, 4, 2), r(0.85, 1, 0.5), r(0.5, 2.5, 1), r(0.7, 3.5, 1.5)},
			[]exactEdge{{0, 1, 0.2}, {0, 2, 0.7}, {1, 2, 0.9}, {1, 3, 0.35}, {2, 4, 0.6}, {3, 4, 0.15}, {3, 5, 0.8}, {4, 5, 0.45}}),
		"cautious": exactInstance(t,
			[]exactUser{
				r(0.9, 1, 0.5), r(0.6, 2, 1), r(0.75, 1.5, 0.5), r(1, 1, 0.25), r(0.4, 2, 1),
				{kind: osn.Cautious, theta: 2, qLow: 0, qHigh: 1, bf: 8, bfof: 2},
				{kind: osn.Cautious, theta: 1, qLow: 0.1, qHigh: 0.8, bf: 6, bfof: 1},
			},
			[]exactEdge{{0, 1, 0.8}, {0, 2, 1}, {1, 5, 0.7}, {2, 5, 0.25}, {3, 5, 1}, {3, 4, 0.3}, {4, 6, 0.85}, {2, 6, 0.2}, {0, 4, 1}}),
	}
}

// TestExactExpectationOracle checks the engine against exact
// expectations. On each tiny instance, theory.EnumerateRealizations lists
// every realization φ with its probability, so a policy's exact expected
// benefit is Σ P(φ)·f(π, φ) over core.Run on each φ. The Monte-Carlo mean
// of the same policy over the engine's own sampler (SampleRealization
// with split seeds) must fall within 4 standard errors of it, and no
// policy may beat the optimal adaptive value. One check covers the
// sampler, both acceptance models, the benefit accounting and every
// shipped policy.
func TestExactExpectationOracle(t *testing.T) {
	const k, draws = 3, 4000
	abm, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{abm, NewPureGreedy(), NewMaxDegree(), NewPageRank(), NewRandom(rng.NewSeed(5, 6))}
	for name, inst := range exactOracleInstances(t) {
		all, err := theory.EnumerateRealizations(inst)
		if err != nil {
			t.Fatal(err)
		}
		var mass float64
		for _, wr := range all {
			mass += wr.P
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("%s: realization weights sum to %v", name, mass)
		}
		opt, err := theory.OptimalValue(inst, k)
		if err != nil {
			t.Fatal(err)
		}
		base := rng.NewSeed(91, 92)
		for _, p := range policies {
			var mean, sq float64
			for _, wr := range all {
				b := runBenefit(t, p, wr.R, k)
				mean += wr.P * b
				sq += wr.P * b * b
			}
			sd := math.Sqrt(math.Max(sq-mean*mean, 0))
			if mean > opt+1e-9 {
				t.Errorf("%s/%s: exact value %v exceeds the optimal %v", name, p.Name(), mean, opt)
			}
			var sum float64
			for i := 0; i < draws; i++ {
				sum += runBenefit(t, p, inst.SampleRealization(base.SplitN("exact-oracle", i)), k)
			}
			mc := sum / draws
			se := sd / math.Sqrt(draws)
			if math.Abs(mc-mean) > 4*se+1e-9 {
				t.Errorf("%s/%s: Monte-Carlo mean %v, exact %v (4·SE = %v, %d realizations)",
					name, p.Name(), mc, mean, 4*se, len(all))
			}
		}
	}
}

func runBenefit(t *testing.T, p Policy, re *osn.Realization, k int) float64 {
	t.Helper()
	res, err := Run(p, re, k)
	if err != nil {
		t.Fatal(err)
	}
	return res.Benefit
}
