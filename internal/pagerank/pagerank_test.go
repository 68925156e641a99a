package pagerank

import (
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
)

func build(t *testing.T, n int, edges [][2]int) *graph.Graph {
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

func TestScoresSumToOne(t *testing.T) {
	g := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}})
	scores, err := Scores(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range scores {
		if s <= 0 {
			t.Errorf("non-positive score %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("scores sum to %v, want 1", sum)
	}
}

func TestScoresSymmetricGraphUniform(t *testing.T) {
	// On a cycle all nodes are equivalent: identical scores.
	g := build(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	scores, err := Scores(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(scores); i++ {
		if math.Abs(scores[i]-scores[0]) > 1e-9 {
			t.Fatalf("cycle scores not uniform: %v", scores)
		}
	}
}

func TestScoresHubDominates(t *testing.T) {
	// Star: the center must have the highest score.
	edges := make([][2]int, 0, 9)
	for i := 1; i < 10; i++ {
		edges = append(edges, [2]int{0, i})
	}
	g := build(t, 10, edges)
	scores, err := Scores(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if scores[i] >= scores[0] {
			t.Fatalf("leaf %d score %v >= center %v", i, scores[i], scores[0])
		}
	}
}

func TestScoresDanglingNodes(t *testing.T) {
	// Isolated node must still receive positive mass and the vector
	// must stay a distribution.
	g := build(t, 3, [][2]int{{0, 1}})
	scores, err := Scores(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("sum = %v", sum)
	}
	if scores[2] <= 0 {
		t.Errorf("isolated node score %v", scores[2])
	}
}

func TestScoresEmptyGraph(t *testing.T) {
	g := build(t, 0, nil)
	scores, err := Scores(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if scores != nil {
		t.Errorf("scores = %v, want nil", scores)
	}
}

func TestScoresOptionValidation(t *testing.T) {
	g := build(t, 2, [][2]int{{0, 1}})
	bad := []Options{
		{Damping: 0, MaxIter: 10, Tol: 1e-9},
		{Damping: 1, MaxIter: 10, Tol: 1e-9},
		{Damping: 0.85, MaxIter: 0, Tol: 1e-9},
		{Damping: 0.85, MaxIter: 10, Tol: 0},
	}
	for _, o := range bad {
		if _, err := Scores(g, o); err == nil {
			t.Errorf("%+v: want error", o)
		}
	}
}

func TestScoresConvergedEqualsLongRun(t *testing.T) {
	g := build(t, 8, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 3}})
	a, err := Scores(g, Options{Damping: 0.85, MaxIter: 100, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scores(g, Options{Damping: 0.85, MaxIter: 500, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("not converged at node %d: %v vs %v", i, a[i], b[i])
		}
	}
}
