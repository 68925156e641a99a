package core

import (
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// TestAllRecklessClosedForm is a metamorphic relation on the whole attack
// loop: on an all-reckless instance with q = 1 for every user and p = 1
// for every edge, nothing is random, every request is accepted, and the
// final benefit has a closed form over the requested set S alone:
//
//	Σ_{u∈S} B_f(u) + Σ_{v∈N(S)∖S} B_fof(v).
//
// The sum is computed here from the graph and the benefits, not from any
// State. Every roster policy must meet it, one request at a time and in
// batches. Benefits are integers, so the engine's running sum is exact.
func TestAllRecklessClosedForm(t *testing.T) {
	const n, m, k = 300, 600, 40
	g, err := gen.ErdosRenyi{N: n, M: m}.Generate(rng.NewSeed(5, 17))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewSeed(5, 18).Rand()
	p := osn.Params{
		Kind:       make([]osn.Kind, n),
		AcceptProb: make([]float64, n),
		Theta:      make([]int, n),
		BFriend:    make([]float64, n),
		BFof:       make([]float64, n),
		EdgeProb:   make([]float64, g.AdjSize()),
	}
	for u := 0; u < n; u++ {
		p.Kind[u], p.AcceptProb[u] = osn.Reckless, 1
		p.BFof[u] = float64(r.IntN(20))
		p.BFriend[u] = p.BFof[u] + float64(1+r.IntN(100))
	}
	for i := range p.EdgeProb {
		p.EdgeProb[i] = 1
	}
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}

	closedForm := func(s []int) float64 {
		friend := make([]bool, n)
		for _, u := range s {
			friend[u] = true
		}
		fof := make([]bool, n)
		total := 0.0
		for _, u := range s {
			total += p.BFriend[u]
			for _, v := range g.Neighbors(u) {
				if !friend[v] && !fof[v] {
					fof[v] = true
					total += p.BFof[v]
				}
			}
		}
		return total
	}

	abm, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{abm, NewPureGreedy(), NewMaxDegree(), NewPageRank(), NewRandom(rng.NewSeed(3, 4))}
	for _, policy := range policies {
		for _, batch := range []int{1, 7} {
			re := inst.SampleRealization(rng.NewSeed(9, uint64(batch)))
			res, err := RunBatched(policy, re, k, batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Steps) != k {
				t.Fatalf("%s, b=%d: %d requests, want %d", policy.Name(), batch, len(res.Steps), k)
			}
			s := make([]int, 0, k)
			for i, step := range res.Steps {
				if !step.Accepted {
					t.Fatalf("%s, b=%d: request %d to user %d refused", policy.Name(), batch, i, step.User)
				}
				s = append(s, step.User)
			}
			if want := closedForm(s); res.Benefit != want || res.Friends != k {
				t.Errorf("%s, b=%d: benefit %v with %d friends, closed form %v with %d",
					policy.Name(), batch, res.Benefit, res.Friends, want, k)
			}
		}
	}
}
