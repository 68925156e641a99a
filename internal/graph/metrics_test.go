package graph

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestComputeDegreeStats(t *testing.T) {
	// Star graph: center degree 4, leaves degree 1.
	g := pairs(t, 5, 0, 1, 0, 2, 0, 3, 0, 4)
	st := g.ComputeDegreeStats(2, 10)
	if st.Min != 1 || st.Max != 4 {
		t.Errorf("min/max = %d/%d, want 1/4", st.Min, st.Max)
	}
	if math.Abs(st.Mean-8.0/5.0) > 1e-12 {
		t.Errorf("mean = %v, want 1.6", st.Mean)
	}
	if st.InBand != 1 { // only the center is within [2,10]
		t.Errorf("InBand = %d, want 1", st.InBand)
	}
}

func TestComputeDegreeStatsEmpty(t *testing.T) {
	g := pairs(t, 0)
	st := g.ComputeDegreeStats(1, 10)
	if st.Min != 0 || st.Max != 0 || st.Mean != 0 || st.InBand != 0 {
		t.Errorf("empty graph stats: %+v", st)
	}
}

func TestPercentileSorted(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.5, 3},
		{1, 5},
		{0.25, 2},
	}
	for _, tc := range cases {
		if got := percentileSorted(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentileSorted(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestLocalClustering(t *testing.T) {
	// Triangle: clustering 1 everywhere.
	tri := pairs(t, 3, 0, 1, 1, 2, 0, 2)
	for u := 0; u < 3; u++ {
		if c := tri.LocalClustering(u); c != 1 {
			t.Errorf("triangle clustering(%d) = %v", u, c)
		}
	}
	// Path: middle node has two unconnected neighbors.
	g := path(t, 3)
	if c := g.LocalClustering(1); c != 0 {
		t.Errorf("path clustering(1) = %v", c)
	}
	if c := g.LocalClustering(0); c != 0 {
		t.Errorf("degree-1 clustering = %v", c)
	}
}

func TestAverageClustering(t *testing.T) {
	// node 3 isolated
	g := pairs(t, 4, 0, 1, 1, 2, 0, 2)
	got := g.AverageClustering(0)
	want := 3.0 / 4.0 // three nodes at 1, one at 0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("avg clustering = %v, want %v", got, want)
	}
	// Sampled version should still be within [0,1].
	if c := g.AverageClustering(2); c < 0 || c > 1 {
		t.Errorf("sampled clustering out of range: %v", c)
	}
	if c := pairs(t, 0).AverageClustering(0); c != 0 {
		t.Errorf("empty graph clustering = %v", c)
	}
}

func TestNodesInDegreeBand(t *testing.T) {
	g := pairs(t, 5, 0, 1, 0, 2, 0, 3, 0, 4)
	band := g.NodesInDegreeBand(1, 1)
	if len(band) != 4 {
		t.Fatalf("band = %v", band)
	}
	band = g.NodesInDegreeBand(4, 10)
	if len(band) != 1 || band[0] != 0 {
		t.Fatalf("band = %v", band)
	}
	if got := g.NodesInDegreeBand(10, 20); got != nil {
		t.Errorf("empty band = %v", got)
	}
}

func TestDegreeAssortativityStar(t *testing.T) {
	// Star: perfect disassortativity (every edge joins degree n-1 to 1).
	g := pairs(t, 6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5)
	if r := g.DegreeAssortativity(); math.Abs(r-(-1)) > 1e-9 {
		t.Errorf("star assortativity = %v, want -1", r)
	}
}

func TestDegreeAssortativityRegular(t *testing.T) {
	// Cycle: all degrees equal — zero variance, defined as 0.
	g := pairs(t, 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0)
	if r := g.DegreeAssortativity(); r != 0 {
		t.Errorf("cycle assortativity = %v, want 0", r)
	}
}

func TestDegreeAssortativityEdgeCases(t *testing.T) {
	if r := pairs(t, 3).DegreeAssortativity(); r != 0 {
		t.Errorf("edgeless assortativity = %v", r)
	}
}

func TestDegreeAssortativityRange(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	g := pairs(t, 40, randomPairs(r, 40, 150)...)
	if a := g.DegreeAssortativity(); a < -1-1e-9 || a > 1+1e-9 {
		t.Errorf("assortativity %v outside [-1, 1]", a)
	}
}
