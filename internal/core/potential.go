package core

import (
	"fmt"

	"github.com/accu-sim/accu/internal/osn"
)

// Weights are the tunable importance of direct vs indirect gains in the
// ABM potential function P(u|ω) = q(u)·(WD·P_D + WI·P_I).
type Weights struct {
	// WD weighs the direct expected benefit P_D.
	WD float64
	// WI weighs the indirect benefit P_I of moving cautious users toward
	// their thresholds.
	WI float64
}

// DefaultWeights returns the paper's balanced setting w_D = w_I = 0.5.
func DefaultWeights() Weights { return Weights{WD: 0.5, WI: 0.5} }

// PolicyName returns the name an ABM policy with these weights reports:
// "greedy" for the pure w_I=0 greedy, "abm(wD=…,wI=…)" otherwise. It lets
// factories label records without constructing a probe policy.
func (w Weights) PolicyName() string {
	if w.WI == 0 {
		return "greedy"
	}
	return fmt.Sprintf("abm(wD=%.2f,wI=%.2f)", w.WD, w.WI)
}

// Validate checks the weights are usable.
func (w Weights) Validate() error {
	if w.WD < 0 || w.WI < 0 {
		return fmt.Errorf("core: weights must be non-negative, got %+v", w)
	}
	if w.WD == 0 && w.WI == 0 {
		return fmt.Errorf("core: at least one weight must be positive")
	}
	return nil
}

// Potential evaluates P(u|ω) for candidate u under the current attack
// state, per §III-A:
//
//	P(u|ω)  = q̂(u)·(w_D·P_D + w_I·P_I)
//	P_D     = B_f(u) − 1_FOF(u)·B_fof(u)
//	          + Σ_{v ∈ N(u)\N(s)} p̂_uv·(1 − 1_FOF(v))·B_fof(v)
//	P_I     = Σ_{v ∈ N(u)∩V_C, θ_v > |N(s)∩N(v)|}
//	          p̂_uv·(B_f(v) − B_fof(v)) / (θ_v − |N(s)∩N(v)|)
//
// where q̂(u) is q(u) for reckless users and, for cautious users, the
// deterministic acceptance indicator (1 iff the threshold is already
// met — any policy knows a below-threshold request would be rejected);
// p̂ is the attacker's posterior edge belief (1/0 once observed, the
// prior otherwise). Friends and already-requested users score 0.
func Potential(st *osn.State, u int, w Weights) float64 {
	if st.Requested(u) || st.IsFriend(u) {
		return 0
	}
	inst := st.Instance()

	// q̂(u): q(u) for reckless users; the condition-matched QLow/QHigh
	// for cautious users (exactly the deterministic indicator under the
	// paper's model).
	q := st.AcceptChance(u)
	if q == 0 {
		return 0
	}

	direct := inst.BFriend(u)
	if st.IsFOF(u) {
		direct -= inst.BFof(u)
	}
	var indirect float64

	g := inst.Graph()
	base := g.AdjBase(u)
	for i, v32 := range g.Neighbors(u) {
		v := int(v32)
		if st.IsFriend(v) {
			continue
		}
		p := st.PosteriorEdgeProb(u, v, base+i)
		if p == 0 {
			continue
		}
		if w.WD > 0 && !st.IsFOF(v) {
			direct += p * inst.BFof(v)
		}
		if w.WI > 0 && inst.Kind(v) == osn.Cautious {
			if deficit := inst.Theta(v) - st.Mutual(v); deficit > 0 {
				indirect += p * (inst.BFriend(v) - inst.BFof(v)) / float64(deficit)
			}
		}
	}
	return q * (w.WD*direct + w.WI*indirect)
}
