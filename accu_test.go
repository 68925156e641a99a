package accu_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	accu "github.com/accu-sim/accu"
)

// TestEndToEndQuickstart mirrors the README quick start: preset →
// network → instance → realization → ABM attack.
func TestEndToEndQuickstart(t *testing.T) {
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generator.Generate(accu.NewSeed(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 10
	inst, err := setup.Build(g, accu.NewSeed(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	re := inst.SampleRealization(accu.NewSeed(5, 6))
	abm, err := accu.NewABM(accu.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := accu.Run(abm, re, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit <= 0 {
		t.Errorf("benefit = %v", res.Benefit)
	}
	if len(res.Steps) != 50 {
		t.Errorf("steps = %d", len(res.Steps))
	}
}

// mustGraph builds the graph on n nodes from the endpoint list ends with
// GraphFromPairs, failing the test on error.
func mustGraph(t *testing.T, n int, ends ...int32) *accu.Graph {
	t.Helper()
	g, err := accu.GraphFromPairs(n, ends)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicPolicies(t *testing.T) {
	g := mustGraph(t, 6, 0, 1, 0, 2, 0, 3, 3, 4, 4, 5)
	p := accu.Params{
		Kind:       make([]accu.Kind, 6),
		AcceptProb: make([]float64, 6),
		Theta:      make([]int, 6),
		BFriend:    make([]float64, 6),
		BFof:       make([]float64, 6),
	}
	for i := 0; i < 6; i++ {
		p.Kind[i] = accu.Reckless
		p.AcceptProb[i] = 1
		p.BFriend[i] = 2
		p.BFof[i] = 1
	}
	inst, err := accu.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	policies := []accu.Policy{
		accu.NewMaxDegree(),
		accu.NewPageRank(),
		accu.NewRandom(accu.NewSeed(9, 9)),
		accu.NewPureGreedy(),
	}
	for _, pol := range policies {
		re := inst.SampleRealization(accu.NewSeed(1, 1))
		res, err := accu.Run(pol, re, 3)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Benefit <= 0 {
			t.Errorf("%s: benefit %v", pol.Name(), res.Benefit)
		}
	}
}

func TestPublicAttackStateAndPotential(t *testing.T) {
	g := mustGraph(t, 3, 0, 1, 1, 2)
	p := accu.Params{
		Kind:       []accu.Kind{accu.Reckless, accu.Reckless, accu.Reckless},
		AcceptProb: []float64{1, 1, 1},
		Theta:      []int{0, 0, 0},
		BFriend:    []float64{2, 2, 2},
		BFof:       []float64{1, 1, 1},
	}
	inst, err := accu.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	st := accu.NewAttack(inst.SampleRealization(accu.NewSeed(2, 2)))
	if accu.Potential(st, 1, accu.DefaultWeights()) <= 0 {
		t.Error("potential of hub must be positive")
	}
	out, err := st.Request(1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted || st.Friends() != 1 {
		t.Errorf("outcome %+v friends %d", out, st.Friends())
	}
}

func TestPublicEdgeListRoundTrip(t *testing.T) {
	g := mustGraph(t, 3, 0, 1)
	var buf bytes.Buffer
	if err := accu.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := accu.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 1 {
		t.Errorf("M = %d", g2.M())
	}
}

func TestPublicPageRank(t *testing.T) {
	scores, err := accu.PageRankScores(mustGraph(t, 3, 0, 1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] <= scores[1] {
		t.Error("hub score not highest")
	}
}

func TestRunExperimentRegistry(t *testing.T) {
	if len(accu.Experiments()) != 11 {
		t.Errorf("experiments = %v", accu.Experiments())
	}
	cfg := accu.ExperimentConfig{
		Scale:       0.02,
		Networks:    1,
		Runs:        1,
		K:           15,
		NumCautious: 5,
		Datasets:    []string{"slashdot"},
		Seed:        accu.NewSeed(11, 12),
	}
	rep, err := accu.RunExperiment(context.Background(), "table1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Rendered, "slashdot") {
		t.Errorf("rendered:\n%s", rep.Rendered)
	}
	if _, err := accu.RunExperiment(context.Background(), "nope", cfg); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestPublicTheoryHelpers(t *testing.T) {
	// Fig. 1 instance: cautious 0 (θ=1) — reckless 1.
	inst, err := accu.NewInstance(mustGraph(t, 2, 0, 1), accu.Params{
		Kind:       []accu.Kind{accu.Cautious, accu.Reckless},
		AcceptProb: []float64{0, 1},
		Theta:      []int{1, 0},
		BFriend:    []float64{50, 2},
		BFof:       []float64{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := accu.AdaptiveSubmodularRatio(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lambda <= 0 || lambda > 1 {
		t.Errorf("λ = %v", lambda)
	}
	opt, err := accu.OptimalValue(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	gre, err := accu.GreedyValue(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gre+1e-9 < accu.TheoremBound(lambda)*opt {
		t.Errorf("Theorem 1 violated: greedy %v < bound %v · opt %v", gre, accu.TheoremBound(lambda), opt)
	}
}

func TestMonteCarloPublic(t *testing.T) {
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 5
	factories, err := accu.DefaultFactories(accu.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	protocol := accu.Protocol{
		Gen:      generator,
		Setup:    setup,
		Networks: 1,
		Runs:     1,
		K:        10,
		Seed:     accu.NewSeed(20, 21),
	}
	count := 0
	err = accu.MonteCarlo(context.Background(), protocol, factories, func(accu.Record) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if count != len(factories) {
		t.Errorf("records = %d", count)
	}
}

func TestPublicLoadEdgeList(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/edges.txt"
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fixed, err := accu.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fixed.Generate(accu.NewSeed(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("loaded N=%d M=%d", g.N(), g.M())
	}
	// The fixed generator slots straight into the §IV-A setup (degree
	// band relaxed for the toy graph).
	setup := accu.DefaultSetup()
	setup.NumCautious = 1
	setup.DegreeLo, setup.DegreeHi = 1, 10
	if _, err := setup.Build(g, accu.NewSeed(2, 2)); err != nil {
		t.Fatal(err)
	}
}
