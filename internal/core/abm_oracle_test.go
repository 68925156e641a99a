package core

import (
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// oracleWeights are the weight settings the lazy-scoring oracles cover:
// balanced, pure direct (greedy), pure indirect, and indirect-heavy.
var oracleWeights = []Weights{DefaultWeights(), {WD: 1, WI: 0}, {WD: 0, WI: 1}, {WD: 0.2, WI: 0.8}}

// presetInstance dresses a slashdot-preset power-law graph (hubs, heavy
// tail) with cautious users; qLow/qHigh select the §III-B acceptance
// model (both zero: the paper's deterministic one).
func presetInstance(t *testing.T, seed uint64, qLow, qHigh float64) *osn.Instance {
	t.Helper()
	preset, err := gen.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.01)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generator.Generate(rng.NewSeed(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := osn.DefaultSetup()
	s.NumCautious = 20
	s.QLowCautious, s.QHighCautious = qLow, qHigh
	inst, err := s.Build(g, rng.NewSeed(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// oracleInstances are the instances the lazy-scoring oracles run on: a
// uniform random graph and slashdot-preset power-law graphs under both
// acceptance models.
func oracleInstances(t *testing.T) map[string]*osn.Instance {
	return map[string]*osn.Instance{
		"random":            randomInstance(t, 700),
		"slashdot":          presetInstance(t, 71, 0, 0),
		"slashdot-q0.2/0.9": presetInstance(t, 72, 0.2, 0.9),
	}
}

// TestABMLazyScoresMatchFreshPotential is the lazy re-scoring oracle:
// after every Observe (batch size 1), or after each batch's Observes
// (RunBatched's protocol: the whole batch is applied, then every accepted
// user is observed against the post-batch state), every unrequested
// candidate's cached score is bit-identical to a from-scratch Potential.
// A dirty set that misses a candidate whose potential moved fails here at
// the first such step, even when the stale score would not yet change a
// selection.
func TestABMLazyScoresMatchFreshPotential(t *testing.T) {
	for name, inst := range oracleInstances(t) {
		for _, w := range oracleWeights {
			for _, b := range []int{1, 5, 10} {
				for seed := uint64(0); seed < 2; seed++ {
					re := inst.SampleRealization(rng.NewSeed(seed, 77))
					a, err := NewABM(w)
					if err != nil {
						t.Fatal(err)
					}
					st := osn.NewState(re)
					if err := a.Init(st); err != nil {
						t.Fatal(err)
					}
					for sent := 0; sent < 80; {
						batch := a.SelectBatch(st, b)
						if len(batch) == 0 {
							break
						}
						outs, err := st.RequestBatch(batch)
						if err != nil {
							t.Fatal(err)
						}
						sent += len(batch)
						for _, out := range outs {
							a.Observe(st, out)
						}
						for v := 0; v < inst.N(); v++ {
							if st.Requested(v) {
								continue
							}
							if got, want := a.scores[v], Potential(st, v, w); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s %+v b=%d seed %d after %d requests: cached score of %d = %v, fresh potential %v",
									name, w, b, seed, sent, v, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestABMLazyBatchedMatchesFullRescan: under RunBatched the lazy policy
// selects exactly what the full-rescan ablation selects, step for step.
func TestABMLazyBatchedMatchesFullRescan(t *testing.T) {
	for name, inst := range oracleInstances(t) {
		for _, w := range oracleWeights {
			for _, b := range []int{5, 10} {
				for seed := uint64(0); seed < 3; seed++ {
					re := inst.SampleRealization(rng.NewSeed(seed, 43))
					lazy, err := NewABM(w)
					if err != nil {
						t.Fatal(err)
					}
					full, err := NewABM(w, WithFullRescan())
					if err != nil {
						t.Fatal(err)
					}
					const k = 80
					resLazy, err := RunBatched(lazy, re, k, b)
					if err != nil {
						t.Fatal(err)
					}
					resFull, err := RunBatched(full, re, k, b)
					if err != nil {
						t.Fatal(err)
					}
					if i := firstDiff(resLazy.Steps, resFull.Steps); i >= 0 {
						t.Fatalf("%s %+v b=%d seed %d: step %d differs (%d vs %d steps)",
							name, w, b, seed, i, len(resLazy.Steps), len(resFull.Steps))
					}
					if resLazy.Benefit != resFull.Benefit {
						t.Fatalf("%s %+v b=%d seed %d: benefits differ: %v vs %v", name, w, b, seed, resLazy.Benefit, resFull.Benefit)
					}
				}
			}
		}
	}
}

// firstDiff returns the first index at which the step traces differ, or
// -1 when they are equal.
func firstDiff(a, b []Step) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
