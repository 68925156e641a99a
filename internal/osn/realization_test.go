package osn

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/rng"
)

// bernoulliRand is rng.Bernoulli drawn through *rand.Rand, the
// references' coin: certain for p <= 0 and p >= 1, else one Float64.
func bernoulliRand(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// sampleRealizationIndexOf is SampleRealization written with IndexOf, three
// binary searches per undirected edge, drawing through *rand.Rand. It is
// the reference the slot-pair kernel is checked against.
func sampleRealizationIndexOf(in *Instance, seed rng.Seed) *Realization {
	r := seed.Split("osn-realization").Rand()
	re := &Realization{
		inst:        in,
		edgeExists:  make([]bool, in.g.AdjSize()),
		accepts:     make([]bool, in.N()),
		acceptsLow:  make([]bool, in.N()),
		acceptsHigh: make([]bool, in.N()),
	}
	in.g.EachEdge(func(u, v int) bool {
		if bernoulliRand(r, in.edgeProb[in.g.IndexOf(u, v)]) {
			re.edgeExists[in.g.IndexOf(u, v)] = true
			re.edgeExists[in.g.IndexOf(v, u)] = true
		}
		return true
	})
	for u := 0; u < in.N(); u++ {
		switch in.kind[u] {
		case Reckless:
			re.accepts[u] = bernoulliRand(r, in.acceptProb[u])
		case Cautious:
			re.acceptsLow[u] = bernoulliRand(r, in.qLow[u])
			re.acceptsHigh[u] = bernoulliRand(r, in.qHigh[u])
		}
	}
	return re
}

// presetInstance builds a small instance on a preset's generator.
func presetInstance(t *testing.T, name string, qLow, qHigh float64) *Instance {
	t.Helper()
	preset, err := gen.PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generator.Generate(rng.NewSeed(41, 42))
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 5
	s.QLowCautious, s.QHighCautious = qLow, qHigh
	inst, err := s.Build(g, rng.NewSeed(43, 44))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestSampleRealizationMatchesReference pins the slot-pair sampler to the
// IndexOf reference: every edge coin and every acceptance coin is
// bit-equal over 50 seeds per preset, under the paper's deterministic
// cautious model and under a probabilistic one.
func TestSampleRealizationMatchesReference(t *testing.T) {
	type tc struct {
		name, preset string
		qLow, qHigh  float64
	}
	cases := []tc{{name: "slashdot-q0.2/0.9", preset: "slashdot", qLow: 0.2, qHigh: 0.9}}
	for _, p := range gen.PresetNames() {
		cases = append(cases, tc{name: p, preset: p})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := presetInstance(t, c.preset, c.qLow, c.qHigh)
			for s := uint64(0); s < 50; s++ {
				seed := rng.NewSeed(s, 99)
				got, want := in.SampleRealization(seed), sampleRealizationIndexOf(in, seed)
				for _, f := range []struct {
					name      string
					got, want []bool
				}{
					{"edgeExists", got.edgeExists, want.edgeExists},
					{"accepts", got.accepts, want.accepts},
					{"acceptsLow", got.acceptsLow, want.acceptsLow},
					{"acceptsHigh", got.acceptsHigh, want.acceptsHigh},
				} {
					if !slices.Equal(f.got, f.want) {
						t.Fatalf("seed %d: %s differs from the IndexOf reference", s, f.name)
					}
				}
			}
		})
	}
}

// TestFixedRealizationSlots checks that FixedRealization marks both
// directions of exactly the edges its predicate selects.
func TestFixedRealizationSlots(t *testing.T) {
	in := presetInstance(t, "slashdot", 0, 0)
	pick := func(u, v int) bool { return (u*7+v)%3 == 0 }
	re := in.FixedRealization(pick, nil)
	in.g.EachEdge(func(u, v int) bool {
		if re.EdgeExists(u, v) != pick(u, v) || re.EdgeExists(v, u) != pick(u, v) {
			t.Fatalf("edge (%d,%d): exists %v/%v, predicate %v", u, v, re.EdgeExists(u, v), re.EdgeExists(v, u), pick(u, v))
		}
		return true
	})
}
