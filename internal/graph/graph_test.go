package graph

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// path builds a path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(t, b, i, i+1)
	}
	return b.Freeze()
}

func mustAdd(t *testing.T, b *Builder, u, v int) {
	t.Helper()
	ok, err := b.AddEdge(u, v)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
	if !ok {
		t.Fatalf("AddEdge(%d,%d): duplicate", u, v)
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if b.N() != 4 || b.M() != 0 {
		t.Fatalf("fresh builder: N=%d M=%d", b.N(), b.M())
	}
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	if b.M() != 2 {
		t.Fatalf("M = %d, want 2", b.M())
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Error("edge (0,1) missing or not symmetric")
	}
	if b.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
	if b.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", b.Degree(1))
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	ok, err := b.AddEdge(1, 1)
	if err != nil || ok {
		t.Fatalf("self loop: ok=%v err=%v, want silently ignored", ok, err)
	}
	if b.M() != 0 {
		t.Error("self loop counted as edge")
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := NewBuilder(3)
	mustAdd(t, b, 0, 1)
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		ok, err := b.AddEdge(pair[0], pair[1])
		if err != nil || ok {
			t.Fatalf("duplicate (%d,%d): ok=%v err=%v", pair[0], pair[1], ok, err)
		}
	}
	if b.M() != 1 {
		t.Errorf("M = %d, want 1", b.M())
	}
}

func TestBuilderRangeError(t *testing.T) {
	b := NewBuilder(3)
	for _, pair := range [][2]int{{-1, 0}, {0, 3}, {5, 5}} {
		if _, err := b.AddEdge(pair[0], pair[1]); !errors.Is(err, ErrNodeRange) {
			t.Errorf("AddEdge(%d,%d): err=%v, want ErrNodeRange", pair[0], pair[1], err)
		}
	}
}

func TestNewBuilderNegativeN(t *testing.T) {
	b := NewBuilder(-5)
	if b.N() != 0 {
		t.Errorf("N = %d, want 0", b.N())
	}
	g := b.Freeze()
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("frozen empty: N=%d M=%d", g.N(), g.M())
	}
}

func TestFreezeSortedRows(t *testing.T) {
	b := NewBuilder(5)
	mustAdd(t, b, 0, 3)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 0, 4)
	mustAdd(t, b, 0, 2)
	g := b.Freeze()
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

func TestFreezeBuilderStillUsable(t *testing.T) {
	b := NewBuilder(3)
	mustAdd(t, b, 0, 1)
	g1 := b.Freeze()
	mustAdd(t, b, 1, 2)
	g2 := b.Freeze()
	if g1.M() != 1 || g2.M() != 2 {
		t.Errorf("snapshots not independent: M1=%d M2=%d", g1.M(), g2.M())
	}
	if g1.HasEdge(1, 2) {
		t.Error("old snapshot sees new edge")
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
	b := NewBuilder(4)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 0, 2)
	mustAdd(t, b, 0, 3)
	mustAdd(t, b, 1, 2)
	g := b.Freeze()
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
	b := NewBuilder(n)
	for i := 0; i < 300; i++ {
		_, _ = b.AddEdge(r.IntN(n), r.IntN(n))
	}
	g := b.Freeze()
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
	b := NewBuilder(6)
	mustAdd(t, b, 0, 1)
	mustAdd(t, b, 1, 2)
	mustAdd(t, b, 3, 4)
	g := b.Freeze()
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
		b := NewBuilder(n)
		for i := 0; i < n*2; i++ {
			_, _ = b.AddEdge(r.IntN(n), r.IntN(n))
		}
		g := b.Freeze()
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
