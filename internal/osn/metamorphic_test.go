package osn

import (
	"slices"
	"testing"

	"github.com/accu-sim/accu/internal/rng"
)

// TestCautiousThetaZeroActsReckless is a metamorphic relation on the
// acceptance model (§II-B, §III-B): a cautious user with θ = 0 meets its
// threshold with no mutual friend, so it must behave exactly as a
// reckless user whose accepts coin is true. Two instances share the
// graph, every benefit and every other user; a quarter of the users are
// cautious with θ = 0 in one and reckless with q = 1 in the other. Under
// one FixedRealization, the same request sequence, in singles and
// batches, must give the same per-step Accepted and Gain, and the same
// benefit, friend and friend-of-friend counts after every batch.
//
// NewInstance rejects θ < 1, as the paper's thresholds are positive, so
// the test sets θ = 0 on the built instance: the relation is about the
// acceptance rule, not about which thresholds Setup draws.
func TestCautiousThetaZeroActsReckless(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.NewSeed(seed, 41).Rand()
		p := uniformParams(n)
		coin := make([]bool, n)
		chosen := make([]bool, n)
		for u := 0; u < n; u++ {
			p.AcceptProb[u] = r.Float64()
			p.BFof[u] = float64(r.IntN(20))
			p.BFriend[u] = p.BFof[u] + float64(1+r.IntN(100))
			coin[u] = r.IntN(2) == 0
			chosen[u] = r.IntN(4) == 0
		}
		cautious, reckless := p, p
		cautious.Kind, cautious.AcceptProb, cautious.Theta = slices.Clone(p.Kind), slices.Clone(p.AcceptProb), slices.Clone(p.Theta)
		reckless.AcceptProb = slices.Clone(p.AcceptProb)
		for u := 0; u < n; u++ {
			if chosen[u] {
				cautious.Kind[u], cautious.AcceptProb[u], cautious.Theta[u] = Cautious, 0, 1
				reckless.AcceptProb[u] = 1
			}
		}
		inC, err := NewInstance(g, cautious)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range inC.Cautious() {
			inC.theta[u] = 0
		}
		inR, err := NewInstance(g, reckless)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			if inC.BFriend(u) != inR.BFriend(u) || inC.BFof(u) != inR.BFof(u) {
				t.Fatalf("seed %d: user %d benefits differ: B_f %v/%v, B_fof %v/%v",
					seed, u, inC.BFriend(u), inR.BFriend(u), inC.BFof(u), inR.BFof(u))
			}
		}

		// Keep each potential edge with probability ~2/3, by a hash of
		// the pair; accepts is read for reckless users only.
		edge := func(u, v int) bool { return (uint64(u)*2654435761^uint64(v)*40503^seed)%3 != 0 }
		accepts := func(u int) bool { return chosen[u] || coin[u] }
		stC := NewState(inC.FixedRealization(edge, accepts))
		stR := NewState(inR.FixedRealization(edge, accepts))
		order := r.Perm(n)
		for len(order) > 0 {
			batch := order[:min(1+r.IntN(4), len(order))]
			order = order[len(batch):]
			outC, err := stC.RequestBatch(nil, batch)
			if err != nil {
				t.Fatal(err)
			}
			outR, err := stR.RequestBatch(nil, batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				c, rk := outC[i], outR[i]
				if c.User != rk.User || c.Accepted != rk.Accepted || c.Gain != rk.Gain {
					t.Fatalf("seed %d, request to %d (θ=0 cautious: %v): θ = 0 gives %+v, reckless %+v",
						seed, batch[i], chosen[batch[i]], c, rk)
				}
			}
			if stC.Benefit() != stR.Benefit() || stC.Friends() != stR.Friends() || stC.FOFCount() != stR.FOFCount() {
				t.Fatalf("seed %d after %v: benefit %v/%v, friends %d/%d, FOF %d/%d", seed, batch,
					stC.Benefit(), stR.Benefit(), stC.Friends(), stR.Friends(), stC.FOFCount(), stR.FOFCount())
			}
		}
		if stC.CautiousFriends() == 0 {
			t.Fatalf("seed %d: no θ = 0 user was befriended; the relation was not exercised", seed)
		}
	}
}
