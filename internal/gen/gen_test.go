package gen

import (
	"errors"
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

func seed(i uint64) rng.Seed { return rng.NewSeed(i, i+1) }

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi{N: 100, M: 250}.Generate(seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 || g.M() != 250 {
		t.Fatalf("N=%d M=%d, want 100/250", g.N(), g.M())
	}
}

func TestErdosRenyiErrors(t *testing.T) {
	cases := []ErdosRenyi{
		{N: -1, M: 0},
		{N: 3, M: -1},
		{N: 3, M: 4}, // > n(n-1)/2
	}
	for _, c := range cases {
		if _, err := c.Generate(seed(2)); !errors.Is(err, ErrBadParam) {
			t.Errorf("%+v: err=%v, want ErrBadParam", c, err)
		}
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	gen := ErdosRenyi{N: 50, M: 100}
	g1, err := gen.Generate(seed(3))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.Generate(seed(3))
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g1, g2)
}

func assertSameGraph(t *testing.T, g1, g2 *graph.Graph) {
	t.Helper()
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", g1.N(), g1.M(), g2.N(), g2.M())
	}
	g1.EachEdge(func(u, v int) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) missing in second graph", u, v)
		}
		return true
	})
}

// The Barabási–Albert model is Holme–Kim without triad formation
// (PTriad 0); the BA tests run it there and, where the property holds for
// both, with triad formation too.

func TestBarabasiAlbertShape(t *testing.T) {
	for _, pTriad := range []float64{0, 0.9} {
		g, err := HolmeKim{N: 500, MAttach: 3, PTriad: pTriad}.Generate(seed(4))
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 500 {
			t.Fatalf("pTriad %v: N = %d", pTriad, g.N())
		}
		// Seed clique (4 nodes, 6 edges) + 496 nodes × 3 edges.
		wantM := 6 + 496*3
		if g.M() != wantM {
			t.Fatalf("pTriad %v: M = %d, want %d", pTriad, g.M(), wantM)
		}
		// Every non-seed node has degree >= mAttach.
		for u := 4; u < 500; u++ {
			if g.Degree(u) < 3 {
				t.Fatalf("pTriad %v: node %d degree %d < 3", pTriad, u, g.Degree(u))
			}
		}
		// Preferential attachment must be connected.
		if _, count := g.Components(); count != 1 {
			t.Errorf("pTriad %v: graph has %d components", pTriad, count)
		}
	}
}

func TestBarabasiAlbertHubs(t *testing.T) {
	g, err := HolmeKim{N: 2000, MAttach: 2}.Generate(seed(5))
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeDegreeStats(10, 100)
	// Preferential attachment should create hubs far above the mean.
	if float64(st.Max) < 5*st.Mean {
		t.Errorf("no hubs: max=%d mean=%.1f", st.Max, st.Mean)
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	cases := []HolmeKim{
		{N: 0, MAttach: 1},
		{N: 10, MAttach: 0},
		{N: 5, MAttach: 5},
	}
	for _, c := range cases {
		if _, err := c.Generate(seed(6)); !errors.Is(err, ErrBadParam) {
			t.Errorf("%+v: err=%v, want ErrBadParam", c, err)
		}
	}
}

func TestHolmeKimClustering(t *testing.T) {
	hk, err := HolmeKim{N: 1500, MAttach: 4, PTriad: 0.9}.Generate(seed(7))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := HolmeKim{N: 1500, MAttach: 4}.Generate(seed(7))
	if err != nil {
		t.Fatal(err)
	}
	chk := hk.AverageClustering(400)
	cba := ba.AverageClustering(400)
	if chk <= cba {
		t.Errorf("Holme–Kim clustering %.4f not above BA %.4f", chk, cba)
	}
}

func TestHolmeKimErrors(t *testing.T) {
	if _, err := (HolmeKim{N: 10, MAttach: 2, PTriad: 1.5}).Generate(seed(8)); !errors.Is(err, ErrBadParam) {
		t.Errorf("pTriad>1: err=%v", err)
	}
	if _, err := (HolmeKim{N: 10, MAttach: 2, PTriad: -0.1}).Generate(seed(8)); !errors.Is(err, ErrBadParam) {
		t.Errorf("pTriad<0: err=%v", err)
	}
}

func TestPowerLawConfigShape(t *testing.T) {
	g, err := PowerLawConfig{N: 3000, MinDeg: 3, MaxDeg: 200, Gamma: 2.3}.Generate(seed(9))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3000 {
		t.Fatalf("N = %d", g.N())
	}
	st := g.ComputeDegreeStats(10, 100)
	if st.Max > 220 {
		t.Errorf("max degree %d exceeds cutoff", st.Max)
	}
	if st.Mean < 2 {
		t.Errorf("mean degree %.2f too low — erasure destroyed the graph", st.Mean)
	}
}

func TestPowerLawConfigErrors(t *testing.T) {
	if _, err := (PowerLawConfig{N: 0, MinDeg: 1, MaxDeg: 5, Gamma: 2}).Generate(seed(10)); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := (PowerLawConfig{N: 10, MinDeg: 1, MaxDeg: 5, Gamma: 0.5}).Generate(seed(10)); err == nil {
		t.Error("gamma<1: want error")
	}
}

func TestCollaborationShape(t *testing.T) {
	g, err := Collaboration{N: 5000, MeanCommunity: 14, PIntra: 0.85, PBridge: 0.35}.Generate(seed(13))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5000 {
		t.Fatalf("N = %d", g.N())
	}
	// Collaboration graphs are highly clustered.
	if c := g.AverageClustering(500); c < 0.3 {
		t.Errorf("clustering %.3f too low for a collaboration graph", c)
	}
}

func TestCollaborationErrors(t *testing.T) {
	cases := []Collaboration{
		{N: 0, MeanCommunity: 5, PIntra: 0.5},
		{N: 10, MeanCommunity: 1, PIntra: 0.5},
		{N: 10, MeanCommunity: 5, PIntra: 0},
		{N: 10, MeanCommunity: 5, PIntra: 0.5, PBridge: 1.5},
	}
	for _, c := range cases {
		if _, err := c.Generate(seed(14)); !errors.Is(err, ErrBadParam) {
			t.Errorf("%+v: err=%v, want ErrBadParam", c, err)
		}
	}
}

func TestPresetLookup(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Key != name {
			t.Errorf("key mismatch: %q vs %q", p.Key, name)
		}
	}
	if _, err := PresetByName("FACEBOOK"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := PresetByName("orkut"); err == nil {
		t.Error("unknown preset: want error")
	}
}

func TestPresetScaleValidation(t *testing.T) {
	p, err := PresetByName("facebook")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.Generator(s); err == nil {
			t.Errorf("scale %v: want error", s)
		}
	}
}

// TestPresetCalibration checks that each preset at a small scale hits the
// target edge density within tolerance. Density (mean degree), not raw
// count, is the scale-invariant property.
func TestPresetCalibration(t *testing.T) {
	const scale = 0.04
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			p, err := PresetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := p.Generator(scale)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gen.Generate(seed(15))
			if err != nil {
				t.Fatal(err)
			}
			wantMean := 2 * float64(p.RefEdges) / float64(p.RefNodes)
			gotMean := 2 * float64(g.M()) / float64(g.N())
			if gotMean < wantMean*0.5 || gotMean > wantMean*1.6 {
				t.Errorf("mean degree %.1f, want ≈ %.1f (±60%%)", gotMean, wantMean)
			}
		})
	}
}

func TestPresetDegreeBandPopulated(t *testing.T) {
	// Cautious users are drawn from the degree band [10, 100]; every
	// preset must have enough such nodes even at small scale.
	for _, name := range PresetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := p.Generator(0.04)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.Generate(seed(16))
		if err != nil {
			t.Fatal(err)
		}
		band := g.NodesInDegreeBand(10, 100)
		if len(band) < 20 {
			t.Errorf("%s: only %d nodes in degree band [10,100]", name, len(band))
		}
	}
}
