package osn

import (
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/rng"
)

// TestBuildOutputPassesValidation pins that Setup.Build, which skips
// NewInstance's per-node and per-edge checks, only ever builds instances
// those checks accept: every preset at ×0.02 under the default protocol,
// and slashdot ×0.02 under every ext-soft (qLow, qHigh) cell and every
// Fig. 6/7 heat-map (θ fraction, cautious B_f) cell.
func TestBuildOutputPassesValidation(t *testing.T) {
	check := func(name string, s Setup, presetName string) {
		t.Helper()
		preset, err := gen.PresetByName(presetName)
		if err != nil {
			t.Fatal(err)
		}
		generator, err := preset.Generator(0.02)
		if err != nil {
			t.Fatal(err)
		}
		g, err := generator.Generate(rng.NewSeed(7, 8))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := s.Build(g, rng.NewSeed(9, 10))
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		if err := inst.validate(); err != nil {
			t.Errorf("%s: Build output fails validation: %v", name, err)
		}
	}
	for _, name := range gen.PresetNames() {
		s := DefaultSetup()
		s.NumCautious = 3 // facebook ×0.02 has few candidates in the band
		check(name, s, name)
	}
	for _, q := range [][2]float64{{0, 1}, {0.05, 1}, {0.1, 1}, {0.2, 1}, {0.2, 0.8}, {0.5, 0.9}} {
		s := DefaultSetup()
		s.NumCautious = 10
		s.QLowCautious, s.QHighCautious = q[0], q[1]
		check("ext-soft", s, "slashdot")
	}
	for _, tf := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		for _, bf := range []float64{20, 40, 60, 80, 100} {
			s := DefaultSetup()
			s.NumCautious = 10
			s.ThetaFraction, s.BFriendCautious = tf, bf
			check("heat-map", s, "slashdot")
		}
	}
}

// TestSetupRejectsNaNThetaFraction: a NaN fraction fails both range
// comparisons, so it must be rejected explicitly rather than reach
// thetaFor, whose int conversion of NaN is platform-defined.
func TestSetupRejectsNaNThetaFraction(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	s := DefaultSetup()
	s.NumCautious = 0
	s.ThetaFraction = math.NaN()
	if _, err := s.Build(g, rng.NewSeed(1, 2)); err == nil {
		t.Fatal("Build accepted ThetaFraction NaN")
	}
}
