package theory

import (
	"fmt"
	"math"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
)

// BPrime computes B'(u) of Lemma 4: the least benefit obtainable from
// befriending u in an adversarial sub-realization — B_f(u) − B_fof(u)
// when u has a neighbor other than the cautious user vc (that neighbor
// can be placed in S first, making u a friend-of-friend already), and
// the full B_f(u) otherwise.
func BPrime(inst *osn.Instance, u, vc int) float64 {
	g := inst.Graph()
	for _, v := range g.Neighbors(u) {
		if int(v) != vc {
			return inst.BFriend(u) - inst.BFof(u)
		}
	}
	return inst.BFriend(u)
}

// Lemma4Lambda evaluates the closed form of Lemma 4 for an instance with
// a single cautious user vc on a deterministic realization (all edge
// probabilities 1):
//
//	deg(vc) = 1, N(vc) = {u}:  λ = B'(u) / (B_f(vc) + B'(u))
//	deg(vc) > 1:               λ = min( min over U ⊆ N(vc), |U| = θ of
//	                                     ΣB'(U) / (B_f(vc) + ΣB'(U)),
//	                                    min over u* ∈ N(vc) of
//	                                     B'(u*) / (B'(vc) + B'(u*)) )
//
// where B'(vc) accounts for vc being a friend-of-friend already when
// θ − 1 ≥ 1 friends of vc sit in S.
func Lemma4Lambda(inst *osn.Instance, vc int) (float64, error) {
	if inst.Kind(vc) != osn.Cautious {
		return 0, fmt.Errorf("theory: node %d is not cautious", vc)
	}
	if inst.NumCautious() != 1 {
		return 0, fmt.Errorf("theory: Lemma 4 needs exactly one cautious user, have %d", inst.NumCautious())
	}
	g := inst.Graph()
	nbrs := g.Neighbors(vc)
	theta := inst.Theta(vc)

	if len(nbrs) == 1 {
		u := int(nbrs[0])
		bu := BPrime(inst, u, vc)
		return bu / (inst.BFriend(vc) + bu), nil
	}

	// Case (12): the cheapest θ-subset of N(vc).
	bps := make([]float64, len(nbrs))
	for i, v := range nbrs {
		bps[i] = BPrime(inst, int(v), vc)
	}
	sortFloats(bps)
	lambda := math.Inf(1)
	if theta <= len(bps) {
		var sum float64
		for _, b := range bps[:theta] {
			sum += b
		}
		lambda = sum / (inst.BFriend(vc) + sum)
	}

	// Case (13): a single neighbor completes the threshold while S holds
	// θ−1 friends of vc. With θ−1 >= 1, vc is already a friend-of-friend
	// in S, so only the upgrade B_f − B_fof remains.
	bvc := inst.BFriend(vc)
	if theta > 1 {
		bvc -= inst.BFof(vc)
	}
	for _, b := range bps {
		if r := b / (bvc + b); r < lambda {
			lambda = r
		}
	}
	return lambda, nil
}

// Lemma5UpperBound evaluates the upper bound of Lemma 5 for a user u
// shared as a friend by the cautious users cs:
//
//	λ ≤ B_f(u) / (Σ_i B'(vc_i) + B_f(u))
//
// where each B'(vc_i) is the threshold-completion gain of cautious user i.
func Lemma5UpperBound(inst *osn.Instance, u int, cs []int) (float64, error) {
	g := inst.Graph()
	var sum float64
	for _, vc := range cs {
		if inst.Kind(vc) != osn.Cautious {
			return 0, fmt.Errorf("theory: node %d is not cautious", vc)
		}
		if !g.HasEdge(u, vc) {
			return 0, fmt.Errorf("theory: %d is not a neighbor of cautious %d", u, vc)
		}
		b := inst.BFriend(vc)
		if inst.Theta(vc) > 1 {
			b -= inst.BFof(vc)
		}
		sum += b
	}
	bu := inst.BFriend(u)
	return bu / (sum + bu), nil
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Witness reports a concrete violation of a submodularity-style property:
// two nested partial realizations and the marginal gains of the same user
// under each.
type Witness struct {
	// DeltaEarly is Δ(u|ω1) with ω1 ⊆ ω2; DeltaLate is Δ(u|ω2).
	DeltaEarly, DeltaLate float64
	// User is the witnessing user.
	User int
}

// NonSubmodularWitness constructs the two-user example of Fig. 1 — a
// cautious user v1 (θ=1) linked to a reckless user v2 (q=1) — and returns
// the marginal gains of v1 before and after befriending v2:
// Δ(v1|∅) = 0 < Δ(v1|{v2 accepted}) = B_f(v1) − B_fof(v1), proving the
// ACCU benefit function is not adaptive submodular.
func NonSubmodularWitness() (Witness, error) {
	g, err := graph.FromPairs(2, []int32{0, 1})
	if err != nil {
		return Witness{}, err
	}
	inst, err := osn.NewInstance(g, osn.Params{
		Kind:       []osn.Kind{osn.Cautious, osn.Reckless},
		AcceptProb: []float64{0, 1},
		Theta:      []int{1, 0},
		BFriend:    []float64{50, 2},
		BFof:       []float64{1, 1},
	})
	if err != nil {
		return Witness{}, err
	}
	all, err := EnumerateRealizations(inst)
	if err != nil {
		return Witness{}, err
	}
	ref := inst.FixedRealization(nil, nil)
	early, err := Delta(inst, all, ref, nil, 0)
	if err != nil {
		return Witness{}, err
	}
	late, err := Delta(inst, all, ref, []int{1}, 0)
	if err != nil {
		return Witness{}, err
	}
	return Witness{DeltaEarly: early, DeltaLate: late, User: 0}, nil
}

// CurvatureWitness reproduces the §III-B argument that the adaptive total
// primal curvature Γ(u|ω′, ω) = Δ(u|ω′)/Δ(u|ω) is unbounded for ACCU: it
// returns the two marginals for the cautious user of the Fig. 1 instance,
// whose ratio is +Inf (division of a positive gain by zero).
func CurvatureWitness() (gamma float64, w Witness, err error) {
	w, err = NonSubmodularWitness()
	if err != nil {
		return 0, Witness{}, err
	}
	if w.DeltaEarly == 0 && w.DeltaLate > 0 {
		return math.Inf(1), w, nil
	}
	return w.DeltaLate / w.DeltaEarly, w, nil
}
