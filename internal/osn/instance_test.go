package osn

import (
	"errors"
	"testing"

	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

func buildGraph(t testing.TB, n int, edges [][2]int) *graph.Graph {
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

// uniformParams builds all-reckless params with q=1, B_f=2, B_fof=1 and
// deterministic edges.
func uniformParams(n int) Params {
	p := Params{
		Kind:       make([]Kind, n),
		AcceptProb: make([]float64, n),
		Theta:      make([]int, n),
		BFriend:    make([]float64, n),
		BFof:       make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.Kind[i] = Reckless
		p.AcceptProb[i] = 1
		p.BFriend[i] = 2
		p.BFof[i] = 1
	}
	return p
}

func TestNewInstanceValid(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	p := uniformParams(3)
	p.Kind[2] = Cautious
	p.Theta[2] = 1
	p.BFriend[2] = 50
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if inst.N() != 3 {
		t.Errorf("N = %d", inst.N())
	}
	if inst.Kind(2) != Cautious || inst.Kind(0) != Reckless {
		t.Error("kinds wrong")
	}
	if inst.NumCautious() != 1 || inst.Cautious()[0] != 2 {
		t.Errorf("cautious list = %v", inst.Cautious())
	}
	if inst.BFriend(2) != 50 || inst.BFof(2) != 1 || inst.Theta(2) != 1 {
		t.Error("attributes wrong")
	}
	// nil EdgeProb defaults to 1 everywhere.
	if inst.EdgeProbUV(0, 1) != 1 {
		t.Errorf("default edge prob = %v", inst.EdgeProbUV(0, 1))
	}
	if inst.EdgeProbUV(0, 2) != 0 { // absent potential edge
		t.Errorf("absent edge prob = %v", inst.EdgeProbUV(0, 2))
	}
}

func TestNewInstanceShapeErrors(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}})
	p := uniformParams(2) // wrong length
	if _, err := NewInstance(g, p); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("err = %v, want ErrShapeMismatch", err)
	}
	p = uniformParams(3)
	p.EdgeProb = []float64{0.5} // wrong length (AdjSize is 2)
	if _, err := NewInstance(g, p); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("err = %v, want ErrShapeMismatch", err)
	}
}

func TestNewInstanceValueErrors(t *testing.T) {
	g := buildGraph(t, 2, [][2]int{{0, 1}})

	p := uniformParams(2)
	p.AcceptProb[0] = 1.5
	if _, err := NewInstance(g, p); !errors.Is(err, ErrBadProbability) {
		t.Errorf("bad q: %v", err)
	}

	p = uniformParams(2)
	p.Kind[0] = Cautious
	p.Theta[0] = 0
	if _, err := NewInstance(g, p); !errors.Is(err, ErrBadThreshold) {
		t.Errorf("bad theta: %v", err)
	}

	p = uniformParams(2)
	p.BFriend[0] = -1
	if _, err := NewInstance(g, p); !errors.Is(err, ErrBadBenefit) {
		t.Errorf("negative benefit: %v", err)
	}

	p = uniformParams(2)
	p.BFriend[0] = 0.5 // below B_fof = 1
	if _, err := NewInstance(g, p); !errors.Is(err, ErrBadBenefit) {
		t.Errorf("B_f < B_fof: %v", err)
	}

	p = uniformParams(2)
	p.Kind[0] = Kind(9)
	if _, err := NewInstance(g, p); err == nil {
		t.Error("invalid kind: want error")
	}

	p = uniformParams(2)
	p.EdgeProb = []float64{1.2, 1.2}
	if _, err := NewInstance(g, p); !errors.Is(err, ErrBadProbability) {
		t.Errorf("bad edge prob: %v", err)
	}

	p = uniformParams(2)
	p.EdgeProb = []float64{0.3, 0.7} // asymmetric
	if _, err := NewInstance(g, p); err == nil {
		t.Error("asymmetric edge prob: want error")
	}
}

// TestNewInstanceCopiesSlices writes to every caller slice after
// NewInstance and requires the instance to keep its own values.
func TestNewInstanceCopiesSlices(t *testing.T) {
	g := buildGraph(t, 2, [][2]int{{0, 1}})
	p := uniformParams(2)
	p.Kind[1], p.Theta[1] = Cautious, 1
	p.EdgeProb = []float64{0.5, 0.5}
	p.QLow, p.QHigh = []float64{0, 0.2}, []float64{1, 0.8}
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Kind[1], p.AcceptProb[0], p.Theta[1] = Reckless, 0.5, 7
	p.BFriend[0], p.BFof[0], p.EdgeProb[0] = 99, 0.5, 0.25
	p.QLow[1], p.QHigh[1] = 0.3, 0.4
	if inst.Kind(1) != Cautious || inst.AcceptProb(0) != 1 || inst.Theta(1) != 1 ||
		inst.BFriend(0) != 2 || inst.BFof(0) != 1 || inst.EdgeProb(0) != 0.5 ||
		inst.QLow(1) != 0.2 || inst.QHigh(1) != 0.8 {
		t.Error("instance aliases a caller slice")
	}
}

func TestKindString(t *testing.T) {
	if Reckless.String() != "reckless" || Cautious.String() != "cautious" {
		t.Error("Kind.String wrong")
	}
	if Kind(0).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestSetupBuildProtocol(t *testing.T) {
	// A graph with a guaranteed band of degree-10..100 candidates:
	// ER with n=400, m=4000 gives mean degree 20.
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 10
	inst, err := s.Build(g, rng.NewSeed(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumCautious() != 10 {
		t.Fatalf("cautious = %d", inst.NumCautious())
	}
	// Cautious users form an independent set within the degree band,
	// with θ = round(0.3 deg) and B_f = 50.
	for _, u := range inst.Cautious() {
		d := g.Degree(u)
		if d < 10 || d > 100 {
			t.Errorf("cautious %d degree %d outside band", u, d)
		}
		if inst.Theta(u) < 1 || inst.Theta(u) > d {
			t.Errorf("cautious %d theta %d vs degree %d", u, inst.Theta(u), d)
		}
		if inst.BFriend(u) != 50 {
			t.Errorf("cautious %d B_f = %v", u, inst.BFriend(u))
		}
		for _, v := range inst.Cautious() {
			if u != v && g.HasEdge(u, v) {
				t.Errorf("cautious users %d and %d adjacent", u, v)
			}
		}
	}
	// Reckless attributes.
	reckless := 0
	for u := 0; u < inst.N(); u++ {
		if inst.Kind(u) != Reckless {
			continue
		}
		reckless++
		if q := inst.AcceptProb(u); q < 0 || q >= 1 {
			t.Errorf("q(%d) = %v outside [0,1)", u, q)
		}
		if inst.BFriend(u) != 2 || inst.BFof(u) != 1 {
			t.Errorf("reckless %d benefits %v/%v", u, inst.BFriend(u), inst.BFof(u))
		}
	}
	if reckless != inst.N()-10 {
		t.Errorf("reckless count %d", reckless)
	}
}

func gen400(t *testing.T) (*graph.Graph, error) {
	t.Helper()
	return gen.ErdosRenyi{N: 400, M: 4000}.Generate(rng.NewSeed(77, 78))
}

func TestSetupBuildDeterministic(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 5
	a, err := s.Build(g, rng.NewSeed(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build(g, rng.NewSeed(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range a.Cautious() {
		if b.Cautious()[i] != u {
			t.Fatal("cautious selection not deterministic")
		}
	}
	for u := 0; u < a.N(); u++ {
		if a.AcceptProb(u) != b.AcceptProb(u) {
			t.Fatal("acceptance probs not deterministic")
		}
	}
}

func TestSetupBuildErrors(t *testing.T) {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	s := DefaultSetup()
	// No node has degree in [10, 100].
	s.NumCautious = 1
	if _, err := s.Build(g, rng.NewSeed(1, 1)); !errors.Is(err, ErrNotEnoughCandidates) {
		t.Errorf("err = %v, want ErrNotEnoughCandidates", err)
	}
	s = DefaultSetup()
	s.NumCautious = -1
	if _, err := s.Build(g, rng.NewSeed(1, 1)); err == nil {
		t.Error("negative NumCautious: want error")
	}
	s = DefaultSetup()
	s.ThetaFraction = 0
	if _, err := s.Build(g, rng.NewSeed(1, 1)); err == nil {
		t.Error("zero ThetaFraction: want error")
	}
	s = DefaultSetup()
	s.BFriendCautious = 0.5 // below BFof
	if _, err := s.Build(g, rng.NewSeed(1, 1)); err == nil {
		t.Error("B_f(c) < B_fof: want error")
	}
}

func TestSetupZeroCautious(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 0
	inst, err := s.Build(g, rng.NewSeed(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumCautious() != 0 {
		t.Errorf("cautious = %d", inst.NumCautious())
	}
}

func TestThetaFor(t *testing.T) {
	cases := []struct {
		deg      int
		fraction float64
		want     int
	}{
		{10, 0.3, 3},
		{1, 0.3, 1},  // floor at 1
		{0, 0.3, 1},  // degenerate degree still gets threshold 1
		{15, 0.3, 5}, // 4.5 rounds to 5 (round half away from zero)
		{100, 0.3, 30},
	}
	for _, tc := range cases {
		if got := thetaFor(tc.deg, tc.fraction); got != tc.want {
			t.Errorf("thetaFor(%d, %v) = %d, want %d", tc.deg, tc.fraction, got, tc.want)
		}
	}
}
