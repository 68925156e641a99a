// Package graph provides the undirected-graph substrate used throughout the
// ACCU reproduction: a frozen, cache-friendly CSR (compressed sparse row)
// form for the attack loops, built by FromPairs from a list of endpoint
// pairs.
//
// Nodes are dense integers in [0, N). Self-loops and parallel edges are
// dropped at build time, matching the simple-graph assumption of the
// paper's network model.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrNodeRange is returned when a node id is outside [0, N).
var ErrNodeRange = errors.New("graph: node id out of range")

// FromPairs builds the simple graph on n nodes whose edges are the
// endpoint pairs (ends[0], ends[1]), (ends[2], ends[3]), …. Self-loops
// and repeated pairs, in either direction, are dropped. An endpoint
// outside [0, n) or an odd-length list returns ErrNodeRange. It is the
// one constructor of a Graph: two counting sorts, with no edge set.
func FromPairs(n int, ends []int32) (*Graph, error) {
	n = max(n, 0)
	if len(ends)%2 != 0 {
		return nil, fmt.Errorf("%w: odd endpoint list of length %d", ErrNodeRange, len(ends))
	}
	offsets := make([]int64, n+1)
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("%w: (%d, %d) with n=%d", ErrNodeRange, u, v, n)
		}
		if u != v {
			offsets[u+1]++
			offsets[v+1]++
		}
	}
	for u := range n {
		offsets[u+1] += offsets[u]
	}
	rows := make([]int32, offsets[n])
	next := slices.Clone(offsets[:n])
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		if u == v {
			continue
		}
		rows[next[u]] = v
		next[u]++
		rows[next[v]] = u
		next[v]++
	}
	return fromRows(n, offsets, rows), nil
}

// fromRows turns symmetric, unsorted rows into the CSR graph: row u is
// rows[offsets[u]:offsets[u+1]], holding u's neighbours in any order,
// possibly repeated, and v is in row u exactly when u is in row v. It
// takes ownership of offsets and rows.
//
// The rows are sorted by transposing them, a second counting sort: walk
// the rows in ascending u and append u to the row of each neighbour v.
// By symmetry row v receives exactly its own neighbours, and in
// ascending order; a repeated neighbour is appended twice in a row, so
// it is dropped as it is copied. Rows with no repeats fill the new array
// exactly; otherwise it is compacted into a fresh one.
func fromRows(n int, offsets []int64, rows []int32) *Graph {
	out := make([]int32, len(rows))
	next := slices.Clone(offsets[:n])
	dropped := 0
	for u := range n {
		for _, v := range rows[offsets[u]:offsets[u+1]] {
			k := next[v]
			if k > offsets[v] && out[k-1] == int32(u) {
				dropped++
				continue
			}
			out[k] = int32(u)
			next[v] = k + 1
		}
	}
	if dropped > 0 {
		compact := make([]int32, len(out)-dropped)
		at, start := int64(0), int64(0)
		for v := range n {
			at += int64(copy(compact[at:], out[start:next[v]]))
			start, offsets[v+1] = offsets[v+1], at
		}
		out = compact
	}
	return &Graph{n: n, m: len(out) / 2, offsets: offsets, neighbors: out}
}

// Graph is an immutable undirected simple graph in CSR form. Adjacency
// rows are sorted ascending, enabling O(d_u + d_v) mutual-neighbor
// counting by merge. A Graph is safe for concurrent use.
type Graph struct {
	n         int
	m         int
	offsets   []int64
	neighbors []int32
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// M reports the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree reports the degree of u, or 0 if out of range.
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the sorted adjacency row of u. The returned slice
// aliases internal storage and must not be modified. Out-of-range u
// returns nil.
func (g *Graph) Neighbors(u int) []int32 {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.neighbors[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether (u, v) exists, by binary search in the shorter
// row: O(log min(d_u, d_v)).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// MutualCount reports |N(u) ∩ N(v)| by merging the two sorted rows.
func (g *Graph) MutualCount(u, v int) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	count, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// AdjBase returns the starting index of u's adjacency row in the global
// CSR neighbor array. Together with Degree it lets callers maintain
// per-directed-edge parallel arrays (e.g. edge probabilities) of length
// AdjSize aligned with Neighbors: the attribute of edge (u, Neighbors(u)[i])
// lives at AdjBase(u)+i.
func (g *Graph) AdjBase(u int) int {
	if u < 0 || u >= g.n {
		return -1
	}
	return int(g.offsets[u])
}

// AdjSize returns the total number of directed adjacency slots (2M).
func (g *Graph) AdjSize() int { return len(g.neighbors) }

// IndexOf returns the global CSR index of neighbor v within u's row, or
// -1 when the edge does not exist. It binary-searches the row, so it is
// for point queries; a walk over every edge should use EachEdgeSlot,
// which hands out both slots of each edge in O(1).
func (g *Graph) IndexOf(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return -1
	}
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	if i < len(row) && row[i] == int32(v) {
		return int(g.offsets[u]) + i
	}
	return -1
}

// EachEdge calls fn(u, v) once per undirected edge with u < v. Iteration
// stops early if fn returns false.
func (g *Graph) EachEdge(fn func(u, v int) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				if !fn(u, int(v)) {
					return
				}
			}
		}
	}
}

// EachEdgeSlot visits the same undirected edges, in the same order, as
// EachEdge, and also passes each edge's two global CSR slots: uv is v's
// slot in u's row and vu is u's slot in v's row. Iteration stops early if
// fn returns false.
//
// Rows are sorted and u rises, so v meets its lower neighbours in row
// order: after seen[v] of them, u sits at slot AdjBase(v)+seen[v]. The
// same count, read at u, skips the lower part of u's own row. The walk
// costs one []int32 of length N per call and no search.
func (g *Graph) EachEdgeSlot(fn func(u, v, uv, vu int) bool) {
	seen := make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		for uv := g.offsets[u] + int64(seen[u]); uv < g.offsets[u+1]; uv++ {
			v := g.neighbors[uv]
			vu := g.offsets[v] + int64(seen[v])
			seen[v]++
			if !fn(u, int(v), int(uv), int(vu)) {
				return
			}
		}
	}
}

// Edges returns all undirected edges with U < V. The slice is freshly
// allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.EachEdge(func(u, v int) bool {
		out = append(out, Edge{U: u, V: v})
		return true
	})
	return out
}

// Edge is an undirected edge with U < V by convention.
type Edge struct {
	U, V int
}

// Canonical returns the edge with endpoints ordered U <= V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}
