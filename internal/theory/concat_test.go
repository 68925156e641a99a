package theory

import (
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// concat implements the policy-concatenation operation of Lemma 2 on
// concrete request sequences: send seqA, then the users of seqB not in
// seqA, preserving order.
func concat(seqA, seqB []int) []int {
	out := append([]int(nil), seqA...)
	seen := make(map[int]bool, len(seqA))
	for _, u := range seqA {
		seen[u] = true
	}
	for _, u := range seqB {
		if !seen[u] {
			out = append(out, u)
			seen[u] = true
		}
	}
	return out
}

// TestLemma2Commutativity verifies f(π1@π2, φ) = f(π2@π1, φ) for the
// sequences produced by two greedy-family policies: both only request a
// cautious user once its threshold is met, which is the condition the
// proof of Lemma 2 relies on.
func TestLemma2Commutativity(t *testing.T) {
	// A random instance with enough reckless users that neither policy
	// needs to burn requests on locked cautious users.
	g, err := gen.ErdosRenyi{N: 120, M: 900}.Generate(rng.NewSeed(201, 202))
	if err != nil {
		t.Fatal(err)
	}
	s := osn.DefaultSetup()
	s.NumCautious = 4
	inst, err := s.Build(g, rng.NewSeed(203, 204))
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 4; trial++ {
		re := inst.SampleRealization(rng.NewSeed(uint64(trial), 205))

		g1 := core.NewPureGreedy()
		res1, err := core.Run(g1, re, 20)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := core.NewABM(core.DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		res2, err := core.Run(g2, re, 20)
		if err != nil {
			t.Fatal(err)
		}

		seq12 := concat(res1.Journal.Users, res2.Journal.Users)
		seq21 := concat(res2.Journal.Users, res1.Journal.Users)

		f12, err := BenefitOf(re, seq12)
		if err != nil {
			t.Fatal(err)
		}
		f21, err := BenefitOf(re, seq21)
		if err != nil {
			t.Fatal(err)
		}
		if f12 != f21 {
			t.Errorf("trial %d: f(π1@π2)=%v != f(π2@π1)=%v", trial, f12, f21)
		}
	}
}

// TestLemma2FailsWithoutGreedyDiscipline shows why the lemma needs its
// condition: arbitrary sequences that request cautious users early are
// NOT order-commutable.
func TestLemma2FailsWithoutGreedyDiscipline(t *testing.T) {
	// cautious 0 (θ=1) — reckless 1.
	inst, err := osn.NewInstance(buildGraph(t, 2, [][2]int{{0, 1}}), osn.Params{
		Kind:       []osn.Kind{osn.Cautious, osn.Reckless},
		AcceptProb: []float64{0, 1},
		Theta:      []int{1, 0},
		BFriend:    []float64{50, 2},
		BFof:       []float64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	re := inst.FixedRealization(nil, nil)
	early, err := BenefitOf(re, []int{0, 1}) // cautious first: rejected
	if err != nil {
		t.Fatal(err)
	}
	late, err := BenefitOf(re, []int{1, 0}) // friend first: accepted
	if err != nil {
		t.Fatal(err)
	}
	if early >= late {
		t.Errorf("expected order dependence: early=%v late=%v", early, late)
	}
}
