package graph

import (
	"math/rand/v2"
	"testing"
)

func TestCoreNumbersPath(t *testing.T) {
	g := path(t, 5)
	for u, c := range g.CoreNumbers() {
		if c != 1 {
			t.Errorf("path coreness[%d] = %d, want 1", u, c)
		}
	}
}

func TestCoreNumbersClique(t *testing.T) {
	var ends []int32
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			ends = append(ends, i, j)
		}
	}
	g := pairs(t, 5, ends...)
	for u, c := range g.CoreNumbers() {
		if c != 4 {
			t.Errorf("K5 coreness[%d] = %d, want 4", u, c)
		}
	}
	if g.Degeneracy() != 4 {
		t.Errorf("degeneracy = %d", g.Degeneracy())
	}
}

func TestCoreNumbersCliqueWithTail(t *testing.T) {
	// Triangle {0,1,2} plus tail 2-3-4: triangle is 2-core, tail 1-core.
	g := pairs(t, 5, 0, 1, 1, 2, 0, 2, 2, 3, 3, 4)
	cores := g.CoreNumbers()
	want := []int{2, 2, 2, 1, 1}
	for u := range want {
		if cores[u] != want[u] {
			t.Errorf("coreness[%d] = %d, want %d (all %v)", u, cores[u], want[u], cores)
		}
	}
}

func TestCoreNumbersIsolatedAndEmpty(t *testing.T) {
	g := pairs(t, 3, 0, 1)
	cores := g.CoreNumbers()
	if cores[2] != 0 {
		t.Errorf("isolated coreness = %d", cores[2])
	}
	empty := pairs(t, 0)
	if got := empty.CoreNumbers(); len(got) != 0 {
		t.Errorf("empty graph cores = %v", got)
	}
	if empty.Degeneracy() != 0 {
		t.Error("empty degeneracy != 0")
	}
}

// TestCoreNumbersMatchBruteForce cross-checks the peeling algorithm
// against iterative deletion on random graphs.
func TestCoreNumbersMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 42))
	for trial := 0; trial < 10; trial++ {
		n := 30 + r.IntN(30)
		g := pairs(t, n, randomPairs(r, n, 3*n)...)
		got := g.CoreNumbers()
		want := bruteForceCores(g)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("trial %d node %d: got %d want %d", trial, u, got[u], want[u])
			}
		}
	}
}

// bruteForceCores computes core numbers by repeated k-core extraction.
func bruteForceCores(g *Graph) []int {
	n := g.N()
	cores := make([]int, n)
	for k := 1; ; k++ {
		// Iteratively remove nodes with degree < k.
		alive := make([]bool, n)
		for u := range alive {
			alive[u] = true
		}
		for changed := true; changed; {
			changed = false
			for u := 0; u < n; u++ {
				if !alive[u] {
					continue
				}
				d := 0
				for _, v := range g.Neighbors(u) {
					if alive[v] {
						d++
					}
				}
				if d < k {
					alive[u] = false
					changed = true
				}
			}
		}
		any := false
		for u := 0; u < n; u++ {
			if alive[u] {
				cores[u] = k
				any = true
			}
		}
		if !any {
			return cores
		}
	}
}
