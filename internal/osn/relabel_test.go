package osn

import (
	"math/rand/v2"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// TestRelabelInvariance is metamorphic: renaming the nodes changes no
// outcome. A random graph and its image under a random permutation π
// (built with FromPairs from π of the same endpoint list) carry the same
// per-node parameters under π, and realizations whose coins are defined
// through π⁻¹. The π-image of one request sequence, sent singly and in
// batches of up to 4, must give identical per-step Accepted, Cautious and
// Gain, and equal final benefit, friend, cautious-friend and FOF counts.
// Benefits are integers, so every gain sum is exact in either order.
func TestRelabelInvariance(t *testing.T) {
	const n, m = 80, 320
	for s := uint64(0); s < 4; s++ {
		r := rng.NewSeed(s, 91).Rand()
		ends := make([]int32, 2*m)
		for i := range ends {
			ends[i] = int32(r.IntN(n))
		}
		pi := r.Perm(n)
		inv := make([]int, n)
		for u, v := range pi {
			inv[v] = u
		}
		piEnds := make([]int32, len(ends))
		for i, u := range ends {
			piEnds[i] = int32(pi[u])
		}

		p := relabelParams(n)
		acc, low, high := make([]bool, n), make([]bool, n), make([]bool, n)
		for u := range n {
			p.Kind[u], p.AcceptProb[u] = Reckless, 0.5
			if r.IntN(4) == 0 {
				p.Kind[u], p.Theta[u] = Cautious, 1+r.IntN(3)
			}
			p.BFof[u] = float64(r.IntN(10))
			p.BFriend[u] = p.BFof[u] + float64(1+r.IntN(50))
			p.QLow[u], p.QHigh[u] = 0.2, 0.8
			acc[u], low[u], high[u] = r.IntN(2) == 0, r.IntN(5) == 0, r.IntN(5) != 0
		}
		piP := relabelParams(n)
		for u, v := range pi {
			piP.Kind[v], piP.AcceptProb[v], piP.Theta[v] = p.Kind[u], p.AcceptProb[u], p.Theta[u]
			piP.BFriend[v], piP.BFof[v] = p.BFriend[u], p.BFof[u]
			piP.QLow[v], piP.QHigh[v] = p.QLow[u], p.QHigh[u]
		}
		edgeSeed := r.Uint64()
		edge := func(u, v int) bool { // a coin per unordered pair of original labels
			h := rand.New(rand.NewPCG(edgeSeed, uint64(min(u, v))<<32|uint64(max(u, v))))
			return h.IntN(3) != 0
		}

		inst := relabelInstance(t, n, ends, p)
		piInst := relabelInstance(t, n, piEnds, piP)
		re := inst.FixedRealizationCautious(edge,
			func(u int) bool { return acc[u] }, func(u int) bool { return low[u] }, func(u int) bool { return high[u] })
		piRe := piInst.FixedRealizationCautious(
			func(u, v int) bool { return edge(inv[u], inv[v]) },
			func(u int) bool { return acc[inv[u]] }, func(u int) bool { return low[inv[u]] }, func(u int) bool { return high[inv[u]] })

		seq := r.Perm(n)[:50]
		for _, maxBatch := range []int{1, 4} {
			st, piSt := NewState(re), NewState(piRe)
			for i := 0; i < len(seq); {
				size := min(1+r.IntN(maxBatch), len(seq)-i)
				users, piUsers := seq[i:i+size], make([]int, size)
				for j, u := range users {
					piUsers[j] = pi[u]
				}
				outs, err := st.RequestBatch(nil, users)
				if err != nil {
					t.Fatal(err)
				}
				piOuts, err := piSt.RequestBatch(nil, piUsers)
				if err != nil {
					t.Fatal(err)
				}
				for j := range outs {
					o, po := outs[j], piOuts[j]
					if pi[o.User] != po.User || o.Accepted != po.Accepted || o.Cautious != po.Cautious || o.Gain != po.Gain {
						t.Fatalf("seed %d batch ≤%d step %d: outcome %+v, relabelled %+v", s, maxBatch, i+j, o, po)
					}
				}
				i += size
			}
			if st.Benefit() != piSt.Benefit() || st.Friends() != piSt.Friends() ||
				st.CautiousFriends() != piSt.CautiousFriends() || st.FOFCount() != piSt.FOFCount() {
				t.Fatalf("seed %d batch ≤%d: benefit, friends, cautious, fof = %v %d %d %d; relabelled %v %d %d %d",
					s, maxBatch, st.Benefit(), st.Friends(), st.CautiousFriends(), st.FOFCount(),
					piSt.Benefit(), piSt.Friends(), piSt.CautiousFriends(), piSt.FOFCount())
			}
		}
	}
}

func relabelInstance(t *testing.T, n int, ends []int32, p Params) *Instance {
	t.Helper()
	g, err := graph.FromPairs(n, ends)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// relabelParams returns Params with every per-node array of length n.
func relabelParams(n int) Params {
	return Params{
		Kind: make([]Kind, n), AcceptProb: make([]float64, n), Theta: make([]int, n),
		BFriend: make([]float64, n), BFof: make([]float64, n),
		QLow: make([]float64, n), QHigh: make([]float64, n),
	}
}
