package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// oracleWeights are the weight settings the lazy-scoring oracles cover:
// balanced, pure direct (greedy), pure indirect, and indirect-heavy.
var oracleWeights = []Weights{DefaultWeights(), {WD: 1, WI: 0}, {WD: 0, WI: 1}, {WD: 0.2, WI: 0.8}}

// presetInstance dresses a graph of the named preset (slashdot: power
// law, hubs, heavy tail) with cautious users; qLow/qHigh select the
// §III-B acceptance model (both zero: the paper's deterministic one).
func presetInstance(t *testing.T, name string, scale float64, seed uint64, qLow, qHigh float64) *osn.Instance {
	t.Helper()
	preset, err := gen.PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(scale)
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
		"slashdot":          presetInstance(t, "slashdot", 0.01, 71, 0, 0),
		"slashdot-q0.2/0.9": presetInstance(t, "slashdot", 0.01, 72, 0.2, 0.9),
	}
}

// TestABMLazyScoresMatchFreshPotential is the lazy re-scoring oracle.
// Before every SelectBatch (batch size 1, or RunBatched's protocol at 5
// and 10: the whole batch is applied, then every accepted user is
// observed against the post-batch state) it checks, for every unrequested
// candidate, the lazy contract against a from-scratch Potential:
//   - an unmarked cached score is bit-identical to the fresh one;
//   - a stale-high cached score is at least the fresh one;
//
// and that the batch ABM selects is the brute-force top-b of the fresh
// potentials in (score desc, user asc) order. An eager set that misses a
// candidate whose potential rose fails here at the first such step, even
// when the stale score would not yet change a selection. At the end the
// metrics invariant heap_pops = selections + stale_skips must hold.
func TestABMLazyScoresMatchFreshPotential(t *testing.T) {
	staleHigh, strictlyHigh := 0, 0
	for name, inst := range oracleInstances(t) {
		for _, w := range oracleWeights {
			for _, b := range []int{1, 5, 10} {
				for seed := uint64(0); seed < 2; seed++ {
					label := fmt.Sprintf("%s %+v b=%d seed %d", name, w, b, seed)
					re := inst.SampleRealization(rng.NewSeed(seed, 77))
					reg := obs.New()
					a, err := NewABM(w, WithMetrics(reg))
					if err != nil {
						t.Fatal(err)
					}
					st := osn.NewState(re)
					if err := a.Init(st); err != nil {
						t.Fatal(err)
					}
					selections := 0
					for sent := 0; sent < 80; {
						fresh := make([]float64, inst.N())
						var live []int
						for v := range fresh {
							if st.Requested(v) {
								continue
							}
							live = append(live, v)
							got, want := a.scores[v], Potential(st, v, w)
							fresh[v] = want
							switch {
							case a.staleHigh[v]:
								staleHigh++
								if got > want {
									strictlyHigh++
								}
								if !(got >= want) {
									t.Fatalf("%s after %d requests: stale-high score of %d = %v is below its fresh potential %v",
										label, sent, v, got, want)
								}
							case math.Float64bits(got) != math.Float64bits(want):
								t.Fatalf("%s after %d requests: cached score of %d = %v, fresh potential %v",
									label, sent, v, got, want)
							}
						}
						slices.SortFunc(live, func(u, v int) int {
							if c := cmp.Compare(fresh[v], fresh[u]); c != 0 {
								return c
							}
							return cmp.Compare(u, v)
						})
						want := live[:min(b, len(live))]
						batch := a.SelectBatch(st, b)
						if !slices.Equal(batch, want) {
							t.Fatalf("%s after %d requests: selected %v, brute-force top-%d %v", label, sent, batch, b, want)
						}
						if len(batch) == 0 {
							break
						}
						selections += len(batch)
						outs, err := st.RequestBatch(batch)
						if err != nil {
							t.Fatal(err)
						}
						sent += len(batch)
						for _, out := range outs {
							a.Observe(st, out)
						}
					}
					pops, skips := reg.Counter("abm.heap_pops").Value(), reg.Counter("abm.stale_skips").Value()
					if pops != int64(selections)+skips {
						t.Fatalf("%s: heap_pops %d != selections %d + stale_skips %d", label, pops, selections, skips)
					}
				}
			}
		}
	}
	// The oracle must exercise the lazy path, not only exact scores.
	if staleHigh == 0 || strictlyHigh == 0 {
		t.Fatalf("lazy path not exercised: %d stale-high checks, %d strictly above fresh", staleHigh, strictlyHigh)
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

// TestABMWeightScalingSelectsIdentically is a metamorphic relation:
// scaling both ABM weights by a power of two scales every potential by
// exactly that factor in IEEE arithmetic, so the (score, user) order and
// every selection are unchanged. The policy names differ, so the steps are
// compared, not the records.
func TestABMWeightScalingSelectsIdentically(t *testing.T) {
	for _, name := range gen.PresetNames() {
		// facebook's reference graph is small: ×0.2 is ~800 nodes, the
		// size of the others at ×0.01.
		scale := 0.01
		if name == "facebook" {
			scale = 0.2
		}
		inst := presetInstance(t, name, scale, 91, 0, 0)
		re := inst.SampleRealization(rng.NewSeed(3, 91))
		for _, w := range oracleWeights {
			for _, b := range []int{1, 5} {
				base, err := NewABM(w)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunBatched(base, re, 60, b)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []float64{2, 0.25} {
					scaled, err := NewABM(Weights{WD: f * w.WD, WI: f * w.WI})
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunBatched(scaled, re, 60, b)
					if err != nil {
						t.Fatal(err)
					}
					if i := firstDiff(got.Steps, want.Steps); i >= 0 {
						t.Fatalf("%s %+v ×%v b=%d: step %d differs (%d vs %d steps)", name, w, f, b, i, len(got.Steps), len(want.Steps))
					}
				}
			}
		}
	}
}
