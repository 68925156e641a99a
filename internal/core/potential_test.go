package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// rngSeed and sampleUsers are small aliases keeping property tests terse.
func rngSeed(hi, lo uint64) rng.Seed { return rng.NewSeed(hi, lo) }

func sampleUsers(r *rand.Rand, n, k int) ([]int, error) {
	return rng.SampleWithoutReplacement(r, n, k)
}

func buildGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	ends := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		ends = append(ends, int32(e[0]), int32(e[1]))
	}
	g, err := graph.FromPairs(n, ends)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func uniformParams(n int) osn.Params {
	p := osn.Params{
		Kind:       make([]osn.Kind, n),
		AcceptProb: make([]float64, n),
		Theta:      make([]int, n),
		BFriend:    make([]float64, n),
		BFof:       make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.Kind[i] = osn.Reckless
		p.AcceptProb[i] = 1
		p.BFriend[i] = 2
		p.BFof[i] = 1
	}
	return p
}

// potentialFixture: path 0-1-2 plus cautious 3 attached to 1, θ=2,
// B_f(3)=50. Edge probs 0.5 everywhere, q=0.8 everywhere.
func potentialFixture(t *testing.T) *osn.Instance {
	t.Helper()
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {1, 3}})
	p := uniformParams(4)
	for i := range p.AcceptProb {
		p.AcceptProb[i] = 0.8
	}
	p.Kind[3] = osn.Cautious
	p.AcceptProb[3] = 0
	p.Theta[3] = 2
	p.BFriend[3] = 50
	p.EdgeProb = make([]float64, g.AdjSize())
	for i := range p.EdgeProb {
		p.EdgeProb[i] = 0.5
	}
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPotentialInitial(t *testing.T) {
	inst := potentialFixture(t)
	st := osn.NewState(inst.FixedRealization(nil, nil))

	// Node 1: q=0.8; P_D = B_f(1) + Σ p·B_fof over neighbors 0,2,3 =
	// 2 + 3·0.5·1 = 3.5; P_I over cautious neighbor 3: 0.5·(50−1)/2 = 12.25.
	w := Weights{WD: 0.5, WI: 0.5}
	got := Potential(st, 1, w)
	want := 0.8 * (0.5*3.5 + 0.5*12.25)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P(1) = %v, want %v", got, want)
	}

	// Node 0: P_D = 2 + 0.5·1 (neighbor 1) = 2.5; no cautious neighbor.
	got = Potential(st, 0, w)
	want = 0.8 * 0.5 * 2.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P(0) = %v, want %v", got, want)
	}

	// Cautious node 3 below threshold scores 0.
	if got := Potential(st, 3, w); got != 0 {
		t.Errorf("P(3) = %v, want 0", got)
	}
}

func TestPotentialPureDirect(t *testing.T) {
	inst := potentialFixture(t)
	st := osn.NewState(inst.FixedRealization(nil, nil))
	w := Weights{WD: 1, WI: 0}
	got := Potential(st, 1, w)
	want := 0.8 * 3.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("pure-direct P(1) = %v, want %v", got, want)
	}
}

func TestPotentialAfterAcceptance(t *testing.T) {
	inst := potentialFixture(t)
	st := osn.NewState(inst.FixedRealization(nil, nil))
	w := Weights{WD: 0.5, WI: 0.5}

	if _, err := st.Request(0); err != nil {
		t.Fatal(err)
	}
	// Node 0 is now a friend: P(0) = 0.
	if got := Potential(st, 0, w); got != 0 {
		t.Errorf("P(friend) = %v", got)
	}
	// Node 1 is now FOF (edge (0,1) realized): P_D loses B_fof(1) from
	// the base but the edge (1,0) term drops (0 is a friend), and the
	// posterior for (1,2),(1,3) is still 0.5:
	// P_D = (2−1) + 0.5·1 [v=2] + 0.5·1 [v=3] = 2; P_I: mutual(3)=0 so
	// deficit 2: 0.5·49/2 = 12.25.
	got := Potential(st, 1, w)
	want := 0.8 * (0.5*2 + 0.5*12.25)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P(1) after friend 0 = %v, want %v", got, want)
	}
}

func TestPotentialObservedEdges(t *testing.T) {
	inst := potentialFixture(t)
	// Only (0,1) and (1,3) realized; (1,2) missing.
	re := inst.FixedRealization(func(u, v int) bool {
		return (u == 0 && v == 1) || (u == 1 && v == 3)
	}, nil)
	st := osn.NewState(re)
	w := Weights{WD: 1, WI: 0}

	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	// Node 2: its only potential neighbor 1 is a friend now, and (1,2)
	// is observed missing. P_D = B_f(2) = 2, no FOF deduction (2 is not
	// FOF since the edge does not exist).
	if st.IsFOF(2) {
		t.Fatal("2 must not be FOF over a missing edge")
	}
	got := Potential(st, 2, w)
	want := 0.8 * 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P(2) = %v, want %v", got, want)
	}
}

func TestPotentialCautiousAtThreshold(t *testing.T) {
	w := Weights{WD: 0.5, WI: 0.5}

	// In the standard fixture θ(3)=2 exceeds node 3's single potential
	// neighbor, so its potential stays 0 even after befriending that
	// neighbor.
	inst := potentialFixture(t)
	st := osn.NewState(inst.FixedRealization(nil, nil))
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	if got := Potential(st, 3, w); got != 0 {
		t.Errorf("unreachable-threshold cautious P = %v, want 0", got)
	}

	// Triangle with θ=1: the threshold unlocks after one friend.
	g := buildGraph(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	p := uniformParams(3)
	p.Kind[2] = osn.Cautious
	p.AcceptProb[2] = 0
	p.Theta[2] = 1
	p.BFriend[2] = 50
	inst2, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	st2 := osn.NewState(inst2.FixedRealization(nil, nil))
	if got := Potential(st2, 2, w); got != 0 {
		t.Errorf("below-threshold cautious P = %v", got)
	}
	if _, err := st2.Request(0); err != nil {
		t.Fatal(err)
	}
	// mutual(2)=1 ≥ θ=1: q̂=1. P_D = 50 − 1 (FOF) + p(2,1)·(1−FOF(1))... 1
	// is FOF already, so nothing: P_D = 49. P_I = 0 (no cautious
	// neighbors — instance has only one cautious user).
	got := Potential(st2, 2, w)
	want := 1.0 * 0.5 * 49
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("at-threshold cautious P = %v, want %v", got, want)
	}
}

func TestPotentialZeroQ(t *testing.T) {
	g := buildGraph(t, 2, [][2]int{{0, 1}})
	p := uniformParams(2)
	p.AcceptProb[0] = 0
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	st := osn.NewState(inst.FixedRealization(nil, nil))
	if got := Potential(st, 0, DefaultWeights()); got != 0 {
		t.Errorf("q=0 potential = %v", got)
	}
}

func TestPotentialRequestedScoresZero(t *testing.T) {
	inst := potentialFixture(t)
	re := inst.FixedRealization(nil, func(int) bool { return false })
	st := osn.NewState(re)
	if _, err := st.Request(0); err != nil {
		t.Fatal(err)
	}
	// 0 was rejected but already requested — never a candidate again.
	if got := Potential(st, 0, DefaultWeights()); got != 0 {
		t.Errorf("requested potential = %v", got)
	}
}

func TestWeightsValidate(t *testing.T) {
	valid := []Weights{{WD: 1, WI: 0}, {WD: 0, WI: 1}, {WD: 0.5, WI: 0.5}, {WD: 2, WI: 3}}
	for _, w := range valid {
		if err := w.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", w, err)
		}
	}
	invalid := []Weights{{WD: -1, WI: 0.5}, {WD: 0.5, WI: -1}, {}}
	for _, w := range invalid {
		if err := w.Validate(); err == nil {
			t.Errorf("%+v: want error", w)
		}
	}
}

func TestPotentialNonNegativeProperty(t *testing.T) {
	// P(u|ω) >= 0 for every user in every reachable state: benefits are
	// non-negative and B_f >= B_fof by instance validation.
	inst := randomInstance(t, 2000)
	re := inst.SampleRealization(rngSeed(20, 21))
	st := osn.NewState(re)
	w := DefaultWeights()
	check := func() {
		for u := 0; u < inst.N(); u += 7 {
			if p := Potential(st, u, w); p < 0 {
				t.Fatalf("negative potential %v for user %d after %d requests", p, u, st.Requests())
			}
		}
	}
	check()
	r := rngSeed(22, 23).Rand()
	order, err := sampleUsers(r, inst.N(), 60)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range order {
		if _, err := st.Request(u); err != nil {
			t.Fatal(err)
		}
		if i%15 == 0 {
			check()
		}
	}
	check()
}
