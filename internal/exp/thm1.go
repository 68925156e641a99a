package exp

import (
	"context"
	"fmt"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/stats"
	"github.com/accu-sim/accu/internal/theory"
)

// thm1Case is one tiny enumerable ACCU instance for Theorem 1
// verification.
type thm1Case struct {
	name  string
	build func() (*osn.Instance, error)
	k     int
}

// thm1Cases covers the paper's structural motifs: a single cautious user
// with a threshold chain, a shared-friend pair of cautious users
// (Lemma 5's regime), probabilistic acceptance, and probabilistic edges.
func thm1Cases() []thm1Case {
	mk := func(n int, ends []int32, mutate func(*osn.Params)) func() (*osn.Instance, error) {
		return func() (*osn.Instance, error) {
			g, err := graph.FromPairs(n, ends)
			if err != nil {
				return nil, err
			}
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
			mutate(&p)
			return osn.NewInstance(g, p)
		}
	}
	cautious := func(p *osn.Params, v, theta int) {
		p.Kind[v] = osn.Cautious
		p.AcceptProb[v] = 0
		p.Theta[v] = theta
		p.BFriend[v] = 50
	}
	return []thm1Case{
		{
			name: "threshold-2-star",
			k:    3,
			build: mk(4, []int32{0, 3, 1, 3, 0, 1, 1, 2}, func(p *osn.Params) {
				cautious(p, 3, 2)
			}),
		},
		{
			name: "probabilistic-acceptance",
			k:    3,
			build: mk(4, []int32{0, 3, 1, 3, 1, 2}, func(p *osn.Params) {
				cautious(p, 3, 1)
				p.AcceptProb[0] = 0.5
				p.AcceptProb[2] = 0.7
			}),
		},
		{
			name: "shared-friend-two-cautious",
			k:    3,
			build: mk(5, []int32{0, 3, 0, 4, 1, 3, 2, 4}, func(p *osn.Params) {
				cautious(p, 3, 2)
				cautious(p, 4, 2)
			}),
		},
	}
}

// thm1Row is Theorem 1's verdict on one case: the exhaustive adaptive
// submodular ratio λ, its bound 1 − e^{−λ}, and the exact-greedy
// (w_I = 0) and optimal adaptive values.
type thm1Row struct {
	name                       string
	k                          int
	lambda, bound, greedy, opt float64
}

// holds reports greedy ≥ (1 − e^{−λ})·OPT up to rounding.
func (r thm1Row) holds() bool { return r.greedy+1e-9 >= r.bound*r.opt }

// thm1Result is what Theorem 1 publishes and the claims checklist reads:
// one row per case, plus the Fig. 1 non-submodularity witness and the
// adaptive total primal curvature Γ it implies.
type thm1Result struct {
	rows    []thm1Row
	witness theory.Witness
	gamma   float64
}

// thm1Data evaluates every case and the witnesses.
func thm1Data(ctx context.Context) (*thm1Result, error) {
	res := &thm1Result{}
	for _, tc := range thm1Cases() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := tc.evaluate()
		if err != nil {
			return nil, fmt.Errorf("exp: thm1 %s: %w", tc.name, err)
		}
		res.rows = append(res.rows, r)
	}
	var err error
	if res.gamma, res.witness, err = theory.CurvatureWitness(); err != nil {
		return nil, err
	}
	return res, nil
}

// evaluate computes one case's row by exhaustive enumeration.
func (tc thm1Case) evaluate() (thm1Row, error) {
	r := thm1Row{name: tc.name, k: tc.k}
	inst, err := tc.build()
	if err != nil {
		return r, err
	}
	if r.lambda, err = theory.AdaptiveSubmodularRatio(inst); err != nil {
		return r, err
	}
	if r.opt, err = theory.OptimalValue(inst, tc.k); err != nil {
		return r, err
	}
	r.bound = theory.Bound(r.lambda)
	r.greedy, err = theory.GreedyValue(inst, tc.k)
	return r, err
}

// Theorem1 verifies the 1 − e^{−λ} guarantee on enumerable instances:
// for each case it computes the exhaustive adaptive submodular ratio λ,
// the optimal adaptive value, the exact-greedy value (w_I = 0), and
// checks greedy ≥ (1 − e^{−λ})·OPT.
func Theorem1(ctx context.Context, cfg Config) (*Report, error) {
	res, err := thm1Data(ctx)
	if err != nil {
		return nil, err
	}
	header := []string{"instance", "k", "lambda", "bound", "greedy", "optimal", "ratio", "holds"}
	var rows [][]string
	var notes []string
	for _, r := range res.rows {
		ratio := 0.0
		if r.opt > 0 {
			ratio = r.greedy / r.opt
		}
		rows = append(rows, []string{
			r.name,
			fmt.Sprintf("%d", r.k),
			fmt.Sprintf("%.4f", r.lambda),
			fmt.Sprintf("%.4f", r.bound),
			fmt.Sprintf("%.3f", r.greedy),
			fmt.Sprintf("%.3f", r.opt),
			fmt.Sprintf("%.3f", ratio),
			fmt.Sprintf("%v", r.holds()),
		})
		if !r.holds() {
			notes = append(notes, fmt.Sprintf("%s: BOUND VIOLATED (greedy %.3f < %.3f)", r.name, r.greedy, r.bound*r.opt))
		}
	}
	w := res.witness
	notes = append(notes,
		fmt.Sprintf("Fig.1 witness: Δ(v1|∅)=%.1f < Δ(v1|ω2)=%.1f — not adaptive submodular", w.DeltaEarly, w.DeltaLate),
		fmt.Sprintf("curvature witness: Γ = %v (unbounded, §III-B)", res.gamma))
	tables := []stats.Table{{Header: header, Rows: rows}}
	return newReport("thm1", "Theorem 1 verification: greedy ≥ (1 − e^{−λ})·OPT on enumerable instances", tables, notes), nil
}
