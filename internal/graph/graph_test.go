package graph

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// pairs builds the graph on n nodes from the endpoint list ends with
// FromPairs, failing the test on error.
func pairs(t testing.TB, n int, ends ...int32) *Graph {
	t.Helper()
	g, err := FromPairs(n, ends)
	if err != nil {
		t.Fatalf("FromPairs(%d, %v): %v", n, ends, err)
	}
	return g
}

// randomPairs draws m endpoint pairs, each endpoint uniform on [0, n).
func randomPairs(r *rand.Rand, n, m int) []int32 {
	ends := make([]int32, 2*m)
	for i := range ends {
		ends[i] = int32(r.IntN(n))
	}
	return ends
}

// path builds a path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	var ends []int32
	for i := 0; i+1 < n; i++ {
		ends = append(ends, int32(i), int32(i+1))
	}
	return pairs(t, n, ends...)
}

// TestBuilderBasics checks N, M, HasEdge and Degree on a small graph
// built from pairs.
func TestBuilderBasics(t *testing.T) {
	if g := pairs(t, 4); g.N() != 4 || g.M() != 0 {
		t.Fatalf("no pairs: N=%d M=%d", g.N(), g.M())
	}
	g := pairs(t, 4, 0, 1, 1, 2)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing or not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	g := pairs(t, 3, 1, 1)
	if g.M() != 0 || g.Degree(1) != 0 || g.HasEdge(1, 1) {
		t.Fatalf("self loop kept: M=%d Degree(1)=%d", g.M(), g.Degree(1))
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	g := pairs(t, 3, 0, 1, 0, 1, 1, 0)
	if g.M() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("M = %d, degrees %d %d; want 1, 1 1", g.M(), g.Degree(0), g.Degree(1))
	}
}

func TestBuilderRangeError(t *testing.T) {
	for _, ends := range [][]int32{{-1, 0}, {0, 3}, {5, 5}, {0, 1, 2}} {
		if _, err := FromPairs(3, ends); !errors.Is(err, ErrNodeRange) {
			t.Errorf("FromPairs(3, %v): err=%v, want ErrNodeRange", ends, err)
		}
	}
}

// TestNewBuilderNegativeN checks that a negative node count builds the
// empty graph, on which every endpoint is out of range.
func TestNewBuilderNegativeN(t *testing.T) {
	if g := pairs(t, -5); g.N() != 0 || g.M() != 0 {
		t.Errorf("empty: N=%d M=%d", g.N(), g.M())
	}
	if _, err := FromPairs(-5, []int32{0, 0}); !errors.Is(err, ErrNodeRange) {
		t.Errorf("FromPairs(-5, [0 0]): err=%v, want ErrNodeRange", err)
	}
}

// TestFreezeSortedRows checks that FromPairs sorts each row ascending,
// whatever the order of the pairs.
func TestFreezeSortedRows(t *testing.T) {
	g := pairs(t, 5, 0, 3, 0, 1, 0, 4, 0, 2)
	row := g.Neighbors(0)
	want := []int32{1, 2, 3, 4}
	if len(row) != len(want) {
		t.Fatalf("row = %v", row)
	}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row = %v, want %v", row, want)
		}
	}
}

func TestGraphHasEdge(t *testing.T) {
	g := path(t, 5)
	if !g.HasEdge(2, 3) || !g.HasEdge(3, 2) {
		t.Error("path edge missing")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) || g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("phantom edge reported")
	}
}

func TestMutualCount(t *testing.T) {
	// Star plus triangle: 0 connected to 1,2,3; 1 connected to 2.
	g := pairs(t, 4, 0, 1, 0, 2, 0, 3, 1, 2)
	if got := g.MutualCount(1, 2); got != 1 { // share node 0
		t.Errorf("MutualCount(1,2) = %d, want 1", got)
	}
	if got := g.MutualCount(0, 1); got != 1 { // share node 2
		t.Errorf("MutualCount(0,1) = %d, want 1", got)
	}
	if got := g.MutualCount(1, 3); got != 1 { // share node 0
		t.Errorf("MutualCount(1,3) = %d, want 1", got)
	}
	if got := g.MutualCount(2, 3); got != 1 {
		t.Errorf("MutualCount(2,3) = %d, want 1", got)
	}
}

func TestMutualCountMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	const n = 60
	g := pairs(t, n, randomPairs(r, n, 300)...)
	for trial := 0; trial < 200; trial++ {
		u, v := r.IntN(n), r.IntN(n)
		brute := 0
		for w := 0; w < n; w++ {
			if g.HasEdge(u, w) && g.HasEdge(v, w) {
				brute++
			}
		}
		if got := g.MutualCount(u, v); got != brute {
			t.Fatalf("MutualCount(%d,%d) = %d, brute = %d", u, v, got, brute)
		}
	}
}

func TestEachEdgeAndEdges(t *testing.T) {
	g := path(t, 4)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge %v not canonical", e)
		}
	}
	// Early stop.
	calls := 0
	g.EachEdge(func(u, v int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("EachEdge early stop: %d calls", calls)
	}
}

func TestEdgeCanonical(t *testing.T) {
	if (Edge{U: 3, V: 1}).Canonical() != (Edge{U: 1, V: 3}) {
		t.Error("Canonical failed to order")
	}
	if (Edge{U: 1, V: 3}).Canonical() != (Edge{U: 1, V: 3}) {
		t.Error("Canonical changed ordered edge")
	}
}

func TestNeighborsOutOfRange(t *testing.T) {
	g := path(t, 3)
	if g.Neighbors(-1) != nil || g.Neighbors(3) != nil {
		t.Error("out-of-range Neighbors not nil")
	}
	if g.Degree(-1) != 0 || g.Degree(3) != 0 {
		t.Error("out-of-range Degree not 0")
	}
}

func TestComponents(t *testing.T) {
	g := pairs(t, 6, 0, 1, 1, 2, 3, 4)
	labels, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (labels %v)", count, labels)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("component {0,1,2} split")
	}
	if labels[3] != labels[4] {
		t.Error("component {3,4} split")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("singleton 5 merged")
	}
}

func TestGraphPropertySymmetry(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	f := func(seed uint32) bool {
		n := int(seed%50) + 2
		g := pairs(t, n, randomPairs(r, n, 2*n)...)
		// Symmetry: HasEdge(u,v) == HasEdge(v,u); degree sum == 2M.
		sum := 0
		for u := 0; u < n; u++ {
			sum += g.Degree(u)
			for _, v := range g.Neighbors(u) {
				if !g.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
