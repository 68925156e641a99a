package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/pagerank"
	"github.com/accu-sim/accu/internal/rng"
)

// StaticRank is a non-adaptive baseline that requests users in a fixed
// order computed once from the potential graph (ignoring observations),
// as the MaxDegree and PageRank baselines of §IV-A do.
type StaticRank struct {
	name string
	rank func(*graph.Graph) ([]int, error)

	// ranked is the graph order was computed from. Holding the pointer
	// keeps that graph alive, so no other graph can reuse its address and
	// a pointer-equal hit in Init is never stale.
	ranked *graph.Graph
	order  []int
	next   int
}

var _ Policy = (*StaticRank)(nil)

// NewMaxDegree returns the MaxDegree baseline: iteratively pick the
// highest-degree user in the network. Ties break toward lower ids.
func NewMaxDegree() *StaticRank {
	return &StaticRank{
		name: "maxdegree",
		rank: func(g *graph.Graph) ([]int, error) { return degreeOrder(g), nil },
	}
}

// degreeOrder orders the users by descending degree, ties toward lower
// ids, by counting sort: ids are scattered in ascending order into one
// bucket per degree, highest degree first. O(N + max degree).
func degreeOrder(g *graph.Graph) []int {
	n, maxDeg := g.N(), 0
	for u := range n {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	// Bucket i = maxDeg-d holds the users of degree d; at[i] is where the
	// next one goes.
	at := make([]int, maxDeg+2)
	for u := range n {
		at[maxDeg-g.Degree(u)+1]++
	}
	for i := 1; i <= maxDeg; i++ {
		at[i] += at[i-1]
	}
	order := make([]int, n)
	for u := range n {
		i := maxDeg - g.Degree(u)
		order[at[i]] = u
		at[i]++
	}
	return order
}

// NewPageRank returns the PageRank baseline: pick users by descending
// PageRank score on the potential graph, ties toward lower ids.
func NewPageRank() *StaticRank {
	return &StaticRank{
		name: "pagerank",
		rank: func(g *graph.Graph) ([]int, error) {
			scores, err := pagerank.Scores(g, pagerank.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("core: pagerank baseline: %w", err)
			}
			order := identity(len(scores))
			slices.SortFunc(order, func(a, b int) int {
				if c := cmp.Compare(scores[b], scores[a]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			return order, nil
		},
	}
}

// Name implements Policy.
func (s *StaticRank) Name() string { return s.name }

// Init implements Policy. The order depends on the graph alone, so Init
// ranks only when the instance's graph differs from the one it last
// ranked; otherwise it just restarts the order.
func (s *StaticRank) Init(st *osn.State) error {
	if g := st.Instance().Graph(); g != s.ranked {
		order, err := s.rank(g)
		if err != nil {
			s.ranked, s.order = nil, nil
			return err
		}
		s.ranked, s.order = g, order
	}
	s.next = 0
	return nil
}

// SelectNext implements Policy.
func (s *StaticRank) SelectNext(st *osn.State) (int, bool) {
	for s.next < len(s.order) {
		u := s.order[s.next]
		s.next++
		if !st.Requested(u) {
			return u, true
		}
	}
	return 0, false
}

// Observe implements Policy.
func (s *StaticRank) Observe(*osn.State, osn.Outcome) {}

// Reseed implements Reusable: the static order never depends on a seed,
// and Init reuses it for as long as the graph stays the same.
func (s *StaticRank) Reseed(rng.Seed) {}

// Random is the uniform-random baseline.
type Random struct {
	seed  rng.Seed
	order []int
	next  int
}

var _ Policy = (*Random)(nil)

// NewRandom returns the random baseline; the seed fixes the request order
// for reproducibility.
func NewRandom(seed rng.Seed) *Random { return &Random{seed: seed} }

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Init implements Policy.
func (r *Random) Init(st *osn.State) error {
	r.order = identity(st.Instance().N())
	rng.Shuffle(r.seed.Split("random-policy").Rand(), r.order)
	r.next = 0
	return nil
}

// SelectNext implements Policy.
func (r *Random) SelectNext(st *osn.State) (int, bool) {
	for r.next < len(r.order) {
		u := r.order[r.next]
		r.next++
		if !st.Requested(u) {
			return u, true
		}
	}
	return 0, false
}

// Observe implements Policy.
func (r *Random) Observe(*osn.State, osn.Outcome) {}

// Reseed implements Reusable: a reseeded Random is indistinguishable from
// NewRandom(seed) — Init re-derives the shuffle from the stored seed.
func (r *Random) Reseed(seed rng.Seed) { r.seed = seed }

// Scheduler-level reuse compliance for all shipped policies.
var (
	_ Reusable = (*ABM)(nil)
	_ Reusable = (*StaticRank)(nil)
	_ Reusable = (*Random)(nil)
)

func identity(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}
