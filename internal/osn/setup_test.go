package osn

import (
	"errors"
	"math"
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
