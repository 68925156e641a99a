package theory

import (
	"errors"
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
)

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

// instWith builds an instance with explicit kinds/params and deterministic
// edges unless edgeProb is provided.
type spec struct {
	n        int
	edges    [][2]int
	cautious map[int]int     // node -> theta
	q        map[int]float64 // reckless acceptance overrides (default 1)
	bf       map[int]float64 // B_f overrides (default 2; cautious default 50)
	bfof     map[int]float64 // B_fof overrides (default 1)
	edgeP    map[[2]int]float64
}

func makeInstance(t *testing.T, s spec) *osn.Instance {
	t.Helper()
	g := buildGraph(t, s.n, s.edges)
	p := osn.Params{
		Kind:       make([]osn.Kind, s.n),
		AcceptProb: make([]float64, s.n),
		Theta:      make([]int, s.n),
		BFriend:    make([]float64, s.n),
		BFof:       make([]float64, s.n),
	}
	for i := 0; i < s.n; i++ {
		p.Kind[i] = osn.Reckless
		p.AcceptProb[i] = 1
		p.BFriend[i] = 2
		p.BFof[i] = 1
	}
	for v, th := range s.cautious {
		p.Kind[v] = osn.Cautious
		p.AcceptProb[v] = 0
		p.Theta[v] = th
		p.BFriend[v] = 50
	}
	for u, q := range s.q {
		p.AcceptProb[u] = q
	}
	for u, b := range s.bf {
		p.BFriend[u] = b
	}
	for u, b := range s.bfof {
		p.BFof[u] = b
	}
	if s.edgeP != nil {
		p.EdgeProb = make([]float64, g.AdjSize())
		for i := range p.EdgeProb {
			p.EdgeProb[i] = 1
		}
		for e, pe := range s.edgeP {
			p.EdgeProb[g.IndexOf(e[0], e[1])] = pe
			p.EdgeProb[g.IndexOf(e[1], e[0])] = pe
		}
	}
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestEnumerateRealizationsDeterministic(t *testing.T) {
	inst := makeInstance(t, spec{n: 2, edges: [][2]int{{0, 1}}})
	all, err := EnumerateRealizations(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("realizations = %d, want 1 (no random bits)", len(all))
	}
	if all[0].P != 1 {
		t.Errorf("probability = %v", all[0].P)
	}
}

func TestEnumerateRealizationsProbabilities(t *testing.T) {
	inst := makeInstance(t, spec{
		n:     3,
		edges: [][2]int{{0, 1}, {1, 2}},
		q:     map[int]float64{0: 0.5},
		edgeP: map[[2]int]float64{{0, 1}: 0.25},
	})
	all, err := EnumerateRealizations(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 { // 2 coins
		t.Fatalf("realizations = %d, want 4", len(all))
	}
	var sum float64
	for _, wr := range all {
		sum += wr.P
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
	// The deterministic edge (1,2) must exist everywhere.
	for _, wr := range all {
		if !wr.R.EdgeExists(1, 2) {
			t.Error("deterministic edge missing in some realization")
		}
	}
}

func TestEnumerateRealizationsTooLarge(t *testing.T) {
	edges := make([][2]int, 0, 20)
	ep := map[[2]int]float64{}
	for i := 0; i < 20; i++ {
		e := [2]int{i, i + 1}
		edges = append(edges, e)
		ep[e] = 0.5
	}
	inst := makeInstance(t, spec{n: 21, edges: edges, edgeP: ep})
	if _, err := EnumerateRealizations(inst); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDeltaMatchesHandComputation(t *testing.T) {
	// Single reckless user with q=0.5 and no edges: Δ(u|∅) = 0.5·B_f.
	inst := makeInstance(t, spec{n: 1, edges: nil, q: map[int]float64{0: 0.5}})
	all, err := EnumerateRealizations(inst)
	if err != nil {
		t.Fatal(err)
	}
	ref := inst.FixedRealization(nil, nil)
	d, err := Delta(inst, all, ref, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 { // 0.5 · 2
		t.Errorf("Δ = %v, want 1", d)
	}
}

func TestDeltaConditioning(t *testing.T) {
	// Edge (0,1) with p=0.5; befriending 0 reveals it. Conditioned on
	// the edge existing, Δ(1|ω) must use posterior 1, not prior 0.5.
	inst := makeInstance(t, spec{
		n:     2,
		edges: [][2]int{{0, 1}},
		edgeP: map[[2]int]float64{{0, 1}: 0.5},
	})
	all, err := EnumerateRealizations(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the edge exists.
	refExists := inst.FixedRealization(func(u, v int) bool { return true }, nil)
	d, err := Delta(inst, all, refExists, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 1 is FOF already: Δ = B_f − B_fof = 1.
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("Δ(1|edge observed) = %v, want 1", d)
	}
	// Reference: the edge is absent.
	refMissing := inst.FixedRealization(func(u, v int) bool { return false }, nil)
	d, err = Delta(inst, all, refMissing, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 1e-12 { // plain B_f, no FOF rebate
		t.Errorf("Δ(1|edge missing) = %v, want 2", d)
	}
}

func TestNonSubmodularWitness(t *testing.T) {
	w, err := NonSubmodularWitness()
	if err != nil {
		t.Fatal(err)
	}
	if w.DeltaEarly != 0 {
		t.Errorf("Δ(v1|∅) = %v, want 0", w.DeltaEarly)
	}
	if math.Abs(w.DeltaLate-49) > 1e-12 { // B_f − B_fof = 50 − 1
		t.Errorf("Δ(v1|ω2) = %v, want 49", w.DeltaLate)
	}
	if w.DeltaLate <= w.DeltaEarly {
		t.Error("witness does not violate adaptive submodularity")
	}
}

func TestCurvatureWitnessUnbounded(t *testing.T) {
	gamma, _, err := CurvatureWitness()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(gamma, 1) {
		t.Errorf("Γ = %v, want +Inf", gamma)
	}
}

func TestBenefitSetClosure(t *testing.T) {
	// Cautious 2 with θ=2, neighbors 0 and 1: f({0,1,2}) must befriend 2
	// via the fixpoint regardless of slice order.
	inst := makeInstance(t, spec{
		n:        3,
		edges:    [][2]int{{0, 2}, {1, 2}},
		cautious: map[int]int{2: 2},
	})
	re := inst.FixedRealization(nil, nil)
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		got, err := BenefitSet(inst, re, order)
		if err != nil {
			t.Fatal(err)
		}
		// friends 0,1,2: 2+2+50; no FOFs left.
		if got != 54 {
			t.Errorf("order %v: f = %v, want 54", order, got)
		}
	}
	// Without both neighbors the cautious user stays out.
	got, err := BenefitSet(inst, re, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 { // friend 0 (2) + FOF 2 (1)
		t.Errorf("f({0,2}) = %v, want 3", got)
	}
}

func TestRASRSubmodularWithoutCautious(t *testing.T) {
	// Observation 1: V_C = ∅ ⇒ λ = 1.
	inst := makeInstance(t, spec{
		n:     4,
		edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
		q:     map[int]float64{1: 0.5},
	})
	lambda, err := AdaptiveSubmodularRatio(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 1 {
		t.Errorf("λ = %v, want 1 for V_C = ∅", lambda)
	}
}

func TestRASRBelowOneWithCautious(t *testing.T) {
	// A cautious user with θ=2 forces λ < 1.
	inst := makeInstance(t, spec{
		n:        4,
		edges:    [][2]int{{0, 3}, {1, 3}, {0, 1}, {1, 2}},
		cautious: map[int]int{3: 2},
	})
	re := inst.FixedRealization(nil, nil)
	lambda, err := RASR(inst, re)
	if err != nil {
		t.Fatal(err)
	}
	if lambda >= 1 || lambda <= 0 {
		t.Errorf("λ_φ = %v, want in (0, 1)", lambda)
	}
}

func TestRASRPositiveUnderLemma1Condition(t *testing.T) {
	// Lemma 1 / Corollary 1: B_f − B_fof > 0 everywhere ⇒ λ > 0.
	inst := makeInstance(t, spec{
		n:        5,
		edges:    [][2]int{{0, 4}, {1, 4}, {2, 4}, {0, 1}, {1, 2}, {2, 3}},
		cautious: map[int]int{4: 3},
	})
	lambda, err := AdaptiveSubmodularRatio(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lambda <= 0 {
		t.Errorf("λ = %v, want > 0", lambda)
	}
}

func TestRASRTooLarge(t *testing.T) {
	edges := make([][2]int, 0, 13)
	for i := 0; i < 13; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	inst := makeInstance(t, spec{n: 14, edges: edges})
	if _, err := RASR(inst, inst.FixedRealization(nil, nil)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestLemma4DegreeOne(t *testing.T) {
	// vc(0) — u(1) — w(2); B_fof(vc)=0 so the closed form is exact.
	inst := makeInstance(t, spec{
		n:        3,
		edges:    [][2]int{{0, 1}, {1, 2}},
		cautious: map[int]int{0: 1},
		bfof:     map[int]float64{0: 0},
	})
	lambda, err := Lemma4Lambda(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	// B'(u) = 2 − 1 = 1 (u has neighbor w); λ = 1 / (50 + 1).
	want := 1.0 / 51.0
	if math.Abs(lambda-want) > 1e-12 {
		t.Fatalf("Lemma 4 λ = %v, want %v", lambda, want)
	}
	// The exhaustive RASR over the single deterministic realization must
	// agree exactly in this B_fof(vc)=0 case.
	exact, err := RASR(inst, inst.FixedRealization(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-want) > 1e-12 {
		t.Errorf("exhaustive λ_φ = %v, want %v", exact, want)
	}
}

func TestLemma4IsLowerBoundWithFofBenefit(t *testing.T) {
	// With B_fof(vc) > 0 the paper's numerator omits the FOF benefit of
	// vc gained while befriending u, so the closed form is a (safe)
	// lower bound on the exhaustive ratio.
	inst := makeInstance(t, spec{
		n:        3,
		edges:    [][2]int{{0, 1}, {1, 2}},
		cautious: map[int]int{0: 1},
	})
	lambda, err := Lemma4Lambda(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RASR(inst, inst.FixedRealization(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if lambda > exact+1e-12 {
		t.Errorf("closed form %v exceeds exhaustive %v", lambda, exact)
	}
	if lambda <= 0 {
		t.Errorf("λ = %v, want > 0", lambda)
	}
}

func TestLemma4HighDegree(t *testing.T) {
	// vc(3) with neighbors 0,1,2 and θ=2; B_fof(vc)=0. Each neighbor
	// also has a private extra neighbor so B' = B_f − B_fof = 1.
	inst := makeInstance(t, spec{
		n:        7,
		edges:    [][2]int{{0, 3}, {1, 3}, {2, 3}, {0, 4}, {1, 5}, {2, 6}},
		cautious: map[int]int{3: 2},
		bfof:     map[int]float64{3: 0},
	})
	lambda, err := Lemma4Lambda(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// (12): cheapest θ-subset sum = 2 → 2/(50+2) = 1/26.
	// (13): B'(vc) = 50 (B_fof(vc)=0 so no FOF rebate... θ>1 means the
	// construction has vc as FOF of S, but its B_fof is 0), single
	// neighbor: 1/(50+1).
	want := math.Min(2.0/52.0, 1.0/51.0)
	if math.Abs(lambda-want) > 1e-12 {
		t.Errorf("λ = %v, want %v", lambda, want)
	}
}

func TestLemma4Errors(t *testing.T) {
	inst := makeInstance(t, spec{
		n:        3,
		edges:    [][2]int{{0, 1}, {1, 2}},
		cautious: map[int]int{0: 1},
	})
	if _, err := Lemma4Lambda(inst, 1); err == nil {
		t.Error("non-cautious node: want error")
	}
	two := makeInstance(t, spec{
		n:        4,
		edges:    [][2]int{{0, 1}, {2, 3}},
		cautious: map[int]int{0: 1, 2: 1},
	})
	if _, err := Lemma4Lambda(two, 0); err == nil {
		t.Error("two cautious users: want error")
	}
}

func TestLemma5UpperBound(t *testing.T) {
	// u(0) shared by cautious 1 and 2 (θ=2 each, other neighbors 3,4).
	inst := makeInstance(t, spec{
		n:        5,
		edges:    [][2]int{{0, 1}, {0, 2}, {3, 1}, {4, 2}},
		cautious: map[int]int{1: 2, 2: 2},
	})
	bound, err := Lemma5UpperBound(inst, 0, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// B'(vc) = 50 − 1 = 49 each (θ > 1); bound = 2/(98+2) = 0.02.
	want := 2.0 / 100.0
	if math.Abs(bound-want) > 1e-12 {
		t.Fatalf("bound = %v, want %v", bound, want)
	}
	// The exhaustive λ_φ must respect the upper bound.
	exact, err := RASR(inst, inst.FixedRealization(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if exact > bound+1e-9 {
		t.Errorf("exhaustive λ_φ = %v exceeds Lemma 5 bound %v", exact, bound)
	}
}

func TestLemma5Errors(t *testing.T) {
	inst := makeInstance(t, spec{
		n:        3,
		edges:    [][2]int{{0, 1}},
		cautious: map[int]int{1: 1},
	})
	if _, err := Lemma5UpperBound(inst, 0, []int{0}); err == nil {
		t.Error("non-cautious member: want error")
	}
	if _, err := Lemma5UpperBound(inst, 2, []int{1}); err == nil {
		t.Error("non-neighbor: want error")
	}
}

func TestOptimalAtLeastGreedy(t *testing.T) {
	inst := makeInstance(t, spec{
		n:        4,
		edges:    [][2]int{{0, 3}, {1, 3}, {0, 1}, {1, 2}},
		cautious: map[int]int{3: 2},
		q:        map[int]float64{2: 0.5},
	})
	for k := 1; k <= 4; k++ {
		opt, err := OptimalValue(inst, k)
		if err != nil {
			t.Fatal(err)
		}
		gre, err := GreedyValue(inst, k)
		if err != nil {
			t.Fatal(err)
		}
		if gre > opt+1e-9 {
			t.Errorf("k=%d: greedy %v exceeds optimal %v", k, gre, opt)
		}
		if opt <= 0 {
			t.Errorf("k=%d: optimal %v not positive", k, opt)
		}
	}
}

func TestOptimalValueKnownInstance(t *testing.T) {
	// Two disconnected reckless users, B_f 2 each, q=1, k=1: the optimal
	// (and greedy) value is 2.
	inst := makeInstance(t, spec{n: 2})
	opt, err := OptimalValue(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-2) > 1e-12 {
		t.Errorf("opt = %v, want 2", opt)
	}
	gre, err := GreedyValue(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gre-2) > 1e-12 {
		t.Errorf("greedy = %v, want 2", gre)
	}
}

func TestOptimalAdaptivityGain(t *testing.T) {
	// Adaptivity matters: with q=0.5 twins and one follow-up slot, the
	// optimal adaptive value with k=2 exceeds k=1 by the conditional
	// value of the second request.
	inst := makeInstance(t, spec{
		n: 2, q: map[int]float64{0: 0.5, 1: 0.5},
	})
	v1, err := OptimalValue(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := OptimalValue(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-1) > 1e-12 { // 0.5·2
		t.Errorf("v1 = %v", v1)
	}
	if math.Abs(v2-2) > 1e-12 { // both requested: 0.5·2 + 0.5·2
		t.Errorf("v2 = %v", v2)
	}
}

func TestTheorem1Bound(t *testing.T) {
	// Greedy(k) ≥ (1 − e^{−λ})·OPT(k) with λ from exhaustive search
	// (conditions: w_I=0 greedy, B_f − B_fof > 0 everywhere).
	instances := []spec{
		{
			n:        4,
			edges:    [][2]int{{0, 3}, {1, 3}, {0, 1}, {1, 2}},
			cautious: map[int]int{3: 2},
		},
		{
			n:        4,
			edges:    [][2]int{{0, 3}, {1, 3}, {1, 2}},
			cautious: map[int]int{3: 1},
			q:        map[int]float64{0: 0.5},
		},
		{
			n:        5,
			edges:    [][2]int{{0, 4}, {1, 4}, {2, 4}, {0, 1}},
			cautious: map[int]int{4: 2},
			q:        map[int]float64{2: 0.7},
		},
	}
	for i, s := range instances {
		inst := makeInstance(t, s)
		lambda, err := AdaptiveSubmodularRatio(inst)
		if err != nil {
			t.Fatal(err)
		}
		if lambda <= 0 {
			t.Fatalf("instance %d: λ = %v", i, lambda)
		}
		for k := 1; k <= 3; k++ {
			opt, err := OptimalValue(inst, k)
			if err != nil {
				t.Fatal(err)
			}
			gre, err := GreedyValue(inst, k)
			if err != nil {
				t.Fatal(err)
			}
			if gre+1e-9 < Bound(lambda)*opt {
				t.Errorf("instance %d k=%d: greedy %v < (1−e^{−%v})·%v = %v",
					i, k, gre, lambda, opt, Bound(lambda)*opt)
			}
		}
	}
}

func TestBound(t *testing.T) {
	if Bound(0) != 0 {
		t.Error("Bound(0) != 0")
	}
	if math.Abs(Bound(1)-(1-1/math.E)) > 1e-12 {
		t.Errorf("Bound(1) = %v", Bound(1))
	}
	if Bound(0.5) <= 0 || Bound(0.5) >= 1 {
		t.Errorf("Bound(0.5) = %v", Bound(0.5))
	}
}

func TestBudgetValidation(t *testing.T) {
	inst := makeInstance(t, spec{n: 2})
	if _, err := OptimalValue(inst, 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := GreedyValue(inst, -1); err == nil {
		t.Error("k<0: want error")
	}
}

// TestStrongAdaptiveMonotonicity checks Definition 2 operationally: the
// exact expected marginal gain Δ(u|ω) is non-negative for every reachable
// partial realization of several small instances.
func TestStrongAdaptiveMonotonicity(t *testing.T) {
	specs := []spec{
		{
			n:        4,
			edges:    [][2]int{{0, 3}, {1, 3}, {0, 1}, {1, 2}},
			cautious: map[int]int{3: 2},
			q:        map[int]float64{0: 0.5},
		},
		{
			n:     3,
			edges: [][2]int{{0, 1}, {1, 2}},
			q:     map[int]float64{1: 0.5},
			edgeP: map[[2]int]float64{{1, 2}: 0.5},
		},
	}
	for si, s := range specs {
		inst := makeInstance(t, s)
		all, err := EnumerateRealizations(inst)
		if err != nil {
			t.Fatal(err)
		}
		seqs := [][]int{nil, {0}, {1}, {0, 1}, {1, 0}, {0, 1, 2}}
		for _, seq := range seqs {
			ref := inst.FixedRealization(nil, nil)
			requested := map[int]bool{}
			for _, u := range seq {
				requested[u] = true
			}
			for u := 0; u < inst.N(); u++ {
				if requested[u] {
					continue
				}
				d, err := Delta(inst, all, ref, seq, u)
				if err != nil {
					t.Fatal(err)
				}
				if d < -1e-9 {
					t.Errorf("spec %d seq %v: Δ(%d|ω) = %v < 0", si, seq, u, d)
				}
			}
		}
	}
}

// TestGreedyValueMonotoneInBudget: more budget can only help.
func TestGreedyValueMonotoneInBudget(t *testing.T) {
	inst := makeInstance(t, spec{
		n:        4,
		edges:    [][2]int{{0, 3}, {1, 3}, {1, 2}},
		cautious: map[int]int{3: 2},
		q:        map[int]float64{2: 0.5},
	})
	prev := 0.0
	for k := 1; k <= 4; k++ {
		v, err := GreedyValue(inst, k)
		if err != nil {
			t.Fatal(err)
		}
		if v+1e-9 < prev {
			t.Errorf("greedy value decreased at k=%d: %v -> %v", k, prev, v)
		}
		prev = v
	}
}
