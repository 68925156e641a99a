package core_test

import (
	"context"
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
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
	var ends []int32
	for _, e := range edges {
		ends = append(ends, int32(e.u), int32(e.v))
	}
	g, err := graph.FromPairs(len(users), ends)
	if err != nil {
		t.Fatal(err)
	}
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
// of the same policy must fall within 4 standard errors of it, and no
// policy may beat the optimal adaptive value. The mean is estimated
// twice: by core.Run over the engine's sampler (SampleRealization with
// split seeds), and by sim.Run over Networks × Runs cells of the fixed
// instance. One check covers the sampler, the grid's per-cell seeding,
// both acceptance models, the benefit accounting and every shipped policy.
func TestExactExpectationOracle(t *testing.T) {
	const k, networks, runs = 3, 40, 100
	const draws = networks * runs
	abm, err := sim.ABMFactory(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	policy := func(name string, p func() core.Policy) sim.PolicyFactory {
		return sim.PolicyFactory{Name: name, New: func(rng.Seed) (core.Policy, error) { return p(), nil }}
	}
	factories := []sim.PolicyFactory{
		abm,
		policy("greedy", func() core.Policy { return core.NewPureGreedy() }),
		policy("maxdegree", func() core.Policy { return core.NewMaxDegree() }),
		policy("pagerank", func() core.Policy { return core.NewPageRank() }),
		// The exact value is Random's under one fixed shuffle seed. Hiding
		// Reseed (the wrapper is not core.Reusable) keeps sim.Run from
		// reseeding it per cell.
		policy("random", func() core.Policy { return struct{ core.Policy }{core.NewRandom(rng.NewSeed(5, 6))} }),
	}
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
		simSum := map[string]float64{}
		p := sim.Protocol{
			Gen: gen.Fixed{G: inst.Graph()}, Setup: fixedInstance{inst},
			Networks: networks, Runs: runs, K: k, Seed: base, Workers: 2,
		}
		if err := sim.Run(context.Background(), p, factories, func(r sim.Record) { simSum[r.Policy] += r.Result.Benefit }); err != nil {
			t.Fatal(err)
		}
		for _, f := range factories {
			pol, err := f.New(rng.Seed{})
			if err != nil {
				t.Fatal(err)
			}
			var mean, sq float64
			for _, wr := range all {
				b := runBenefit(t, pol, wr.R, k)
				mean += wr.P * b
				sq += wr.P * b * b
			}
			sd := math.Sqrt(math.Max(sq-mean*mean, 0))
			if mean > opt+1e-9 {
				t.Errorf("%s/%s: exact value %v exceeds the optimal %v", name, f.Name, mean, opt)
			}
			var sum float64
			for i := 0; i < draws; i++ {
				sum += runBenefit(t, pol, inst.SampleRealization(base.SplitN("exact-oracle", i)), k)
			}
			se := sd / math.Sqrt(draws)
			for via, mc := range map[string]float64{"core.Run": sum / draws, "sim.Run": simSum[f.Name] / draws} {
				if math.Abs(mc-mean) > 4*se+1e-9 {
					t.Errorf("%s/%s via %s: Monte-Carlo mean %v, exact %v (4·SE = %v, %d realizations)",
						name, f.Name, via, mc, mean, 4*se, len(all))
				}
			}
		}
	}
}

// fixedInstance is a sim.Builder that dresses every network into the
// same hand-built instance.
type fixedInstance struct{ inst *osn.Instance }

func (b fixedInstance) Build(*graph.Graph, rng.Seed) (*osn.Instance, error) { return b.inst, nil }

func runBenefit(t *testing.T, p core.Policy, re *osn.Realization, k int) float64 {
	t.Helper()
	res, err := core.Run(p, re, k)
	if err != nil {
		t.Fatal(err)
	}
	return res.Benefit
}
