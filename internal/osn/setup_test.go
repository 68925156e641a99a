package osn

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/rng"
)

// TestSetupRejectsBadValues pins that Setup.Build refuses every bad
// protocol value, with the sentinel error where one applies, whichever
// stage of construction makes the check.
func TestSetupRejectsBadValues(t *testing.T) {
	preset, err := gen.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generator.Generate(rng.NewSeed(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	cases := []struct {
		name string
		edit func(*Setup)
		want error // nil: any error
	}{
		{"negative NumCautious", func(s *Setup) { s.NumCautious = -1 }, nil},
		{"zero ThetaFraction", func(s *Setup) { s.ThetaFraction = 0 }, nil},
		{"ThetaFraction above 1", func(s *Setup) { s.ThetaFraction = 1.5 }, nil},
		{"negative BFof", func(s *Setup) { s.BFof = -1 }, ErrBadBenefit},
		{"NaN BFof", func(s *Setup) { s.BFof = nan }, ErrBadBenefit},
		{"reckless B_f below B_fof", func(s *Setup) { s.BFriendReckless = 0.5 }, ErrBadBenefit},
		{"cautious B_f below B_fof", func(s *Setup) { s.BFriendCautious = 0.5 }, ErrBadBenefit},
		{"NaN BFriendReckless", func(s *Setup) { s.BFriendReckless = nan }, ErrBadBenefit},
		{"NaN BFriendCautious", func(s *Setup) { s.BFriendCautious = nan }, ErrBadBenefit},
		{"negative QLow", func(s *Setup) { s.QLowCautious, s.QHighCautious = -0.1, 1 }, ErrBadProbability},
		{"QHigh above 1", func(s *Setup) { s.QLowCautious, s.QHighCautious = 0, 1.1 }, ErrBadProbability},
		{"QLow above QHigh", func(s *Setup) { s.QLowCautious, s.QHighCautious = 0.6, 0.4 }, ErrBadProbability},
		{"NaN QLow", func(s *Setup) { s.QLowCautious, s.QHighCautious = nan, 1 }, ErrBadProbability},
		{"NaN QHigh", func(s *Setup) { s.QLowCautious, s.QHighCautious = 0.1, nan }, ErrBadProbability},
		{"too many cautious", func(s *Setup) { s.NumCautious = g.N() }, ErrNotEnoughCandidates},
	}
	for _, tc := range cases {
		s := DefaultSetup()
		s.NumCautious = 5
		tc.edit(&s)
		_, err := s.Build(g, rng.NewSeed(1, 2))
		switch {
		case err == nil:
			t.Errorf("%s: Build accepted %+v", tc.name, s)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	s := DefaultSetup()
	s.NumCautious = 5
	if _, err := s.Build(g, rng.NewSeed(1, 2)); err != nil {
		t.Fatalf("valid setup rejected: %v", err)
	}
}

// setupProbsIndexOf is Build's probability draw written with EachEdge,
// IndexOf and *rand.Rand: it replays the set-up stream (the band shuffle,
// then one Float64 per reckless user) and stores each edge's p(u, v) at
// both of its slots, found by binary search. It is the reference the
// slot-pair walk is checked against.
func setupProbsIndexOf(in *Instance, s Setup, seed rng.Seed) (acceptProb, edgeProb []float64) {
	g := in.g
	r := seed.Split("osn-setup").Rand()
	rng.Shuffle(r, g.NodesInDegreeBand(s.DegreeLo, s.DegreeHi))
	acceptProb = make([]float64, in.N())
	for u := range acceptProb {
		if in.kind[u] == Reckless {
			acceptProb[u] = r.Float64()
		}
	}
	edgeProb = make([]float64, g.AdjSize())
	g.EachEdge(func(u, v int) bool {
		pe := r.Float64()
		edgeProb[g.IndexOf(u, v)] = pe
		edgeProb[g.IndexOf(v, u)] = pe
		return true
	})
	return acceptProb, edgeProb
}

// TestSetupBuildMatchesReference pins Build's acceptance and edge
// probabilities to the IndexOf reference, bit for bit, over 20 set-up
// seeds per preset at ×0.02, under the paper's deterministic cautious
// model and under a probabilistic one.
func TestSetupBuildMatchesReference(t *testing.T) {
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
			g := presetInstance(t, c.preset, c.qLow, c.qHigh).g
			s := DefaultSetup()
			s.NumCautious = 5
			s.QLowCautious, s.QHighCautious = c.qLow, c.qHigh
			for i := uint64(0); i < 20; i++ {
				seed := rng.NewSeed(i, 45)
				in, err := s.Build(g, seed)
				if err != nil {
					t.Fatal(err)
				}
				acceptProb, edgeProb := setupProbsIndexOf(in, s, seed)
				if !slices.Equal(in.acceptProb, acceptProb) {
					t.Fatalf("seed %d: acceptProb differs from the IndexOf reference", i)
				}
				if !slices.Equal(in.edgeProb, edgeProb) {
					t.Fatalf("seed %d: edgeProb differs from the IndexOf reference", i)
				}
			}
		})
	}
}
