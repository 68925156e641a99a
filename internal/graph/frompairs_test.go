package graph

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// builderModel is the reference builder FromPairs must answer exactly
// like: one Go map of neighbours per node, filled pair by pair.
type builderModel struct {
	adj []map[int]bool
	m   int
}

// newBuilderModel adds the pairs of ends to a model on max(n, 0) nodes.
// It reports false where FromPairs must return ErrNodeRange: an
// odd-length list or an endpoint outside [0, n).
func newBuilderModel(n int, ends []int32) (*builderModel, bool) {
	md := &builderModel{adj: make([]map[int]bool, max(n, 0))}
	for u := range md.adj {
		md.adj[u] = map[int]bool{}
	}
	if len(ends)%2 != 0 {
		return nil, false
	}
	for i := 0; i < len(ends); i += 2 {
		u, v := int(ends[i]), int(ends[i+1])
		if !md.inRange(u) || !md.inRange(v) {
			return nil, false
		}
		md.add(u, v)
	}
	return md, true
}

func (md *builderModel) inRange(u int) bool { return u >= 0 && u < len(md.adj) }

// add records the pair (u, v), both in range, unless it is a self-loop
// or already an edge.
func (md *builderModel) add(u, v int) {
	if u != v && !md.adj[u][v] {
		md.adj[u][v], md.adj[v][u] = true, true
		md.m++
	}
}

func (md *builderModel) hasEdge(u, v int) bool {
	return md.inRange(u) && md.inRange(v) && md.adj[u][v]
}

func (md *builderModel) degree(u int) int {
	if !md.inRange(u) {
		return 0
	}
	return len(md.adj[u])
}

// checkFrozen compares a CSR with the model: every row holds exactly the
// model's neighbours in strictly ascending order.
func checkFrozen(t *testing.T, g *Graph, md *builderModel) {
	t.Helper()
	if g.N() != len(md.adj) || g.M() != md.m || g.AdjSize() != 2*md.m {
		t.Fatalf("N, M, AdjSize = %d, %d, %d; want %d, %d, %d",
			g.N(), g.M(), g.AdjSize(), len(md.adj), md.m, 2*md.m)
	}
	for u, nbrs := range md.adj {
		row := g.Neighbors(u)
		if len(row) != len(nbrs) {
			t.Fatalf("row %d = %v, want %d neighbours", u, row, len(nbrs))
		}
		for i, v := range row {
			if !nbrs[int(v)] || (i > 0 && row[i-1] >= v) {
				t.Fatalf("row %d = %v: not the model's neighbours in ascending order", u, row)
			}
		}
	}
}

// checkFromPairs builds ends with FromPairs and with builderModel and fails
// unless the CSR holds the model's graph, or both reject the list with
// ErrNodeRange. On the built graph it also runs checkEdgeSlots.
func checkFromPairs(t *testing.T, n int, ends []int32) {
	t.Helper()
	got, err := FromPairs(n, ends)
	md, ok := newBuilderModel(n, ends)
	if !ok {
		if !errors.Is(err, ErrNodeRange) {
			t.Fatalf("FromPairs(%d, %v) = %v, want ErrNodeRange", n, ends, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("FromPairs(%d, %v): %v", n, ends, err)
	}
	checkFrozen(t, got, md)
	checkEdgeSlots(t, got)
}

// checkEdgeSlots fails unless EachEdgeSlot visits EachEdge's edges in
// its order and hands out, for each, the two slots IndexOf finds.
func checkEdgeSlots(t *testing.T, g *Graph) {
	t.Helper()
	want := g.Edges()
	i := 0
	g.EachEdgeSlot(func(u, v, uv, vu int) bool {
		if i >= len(want) {
			t.Fatalf("EachEdgeSlot walks more than EachEdge's %d edges", len(want))
		}
		if (Edge{U: u, V: v}) != want[i] || uv != g.IndexOf(u, v) || vu != g.IndexOf(v, u) {
			t.Fatalf("edge %d: EachEdgeSlot gives (%d, %d) at slots (%d, %d); EachEdge and IndexOf give %v at (%d, %d)",
				i, u, v, uv, vu, want[i], g.IndexOf(u, v), g.IndexOf(v, u))
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("EachEdgeSlot walked %d edges, EachEdge %d", i, len(want))
	}
}

// TestFromPairsMatchesBuilder runs random pair lists through
// checkFromPairs: dense lists on few nodes (many repeats and self-loops),
// sparse lists on many nodes (isolated nodes), n of 0, 1 and below 0, and
// lists with an out-of-range endpoint or an odd length.
func TestFromPairsMatchesBuilder(t *testing.T) {
	r := rand.New(rand.NewPCG(37, 1))
	for _, n := range []int{0, 1, 2, 3, 7, 40, 300} {
		for _, pairs := range []int{0, 1, 5, 60, 2000} {
			ends := make([]int32, 2*pairs)
			for i := range ends {
				ends[i] = int32(r.IntN(max(n, 1)))
			}
			checkFromPairs(t, n, ends)
			if pairs == 0 {
				continue
			}
			checkFromPairs(t, n, ends[:len(ends)-1])
			for _, bad := range []int32{-1, int32(n), int32(n) + 5} {
				at := r.IntN(len(ends))
				old := ends[at]
				ends[at] = bad
				checkFromPairs(t, n, ends)
				ends[at] = old
			}
		}
	}
	checkFromPairs(t, -3, nil)
	checkFromPairs(t, -3, []int32{0, 1})
}

// TestFromPairsDropsRepeats pins the drop rules on a small list: the
// self-loop goes, and (0, 2) listed three times in both directions is one
// edge.
func TestFromPairsDropsRepeats(t *testing.T) {
	g, err := FromPairs(4, []int32{0, 2, 1, 1, 2, 0, 3, 0, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || !slices.Equal(g.Neighbors(0), []int32{2, 3}) ||
		len(g.Neighbors(1)) != 0 || !slices.Equal(g.Neighbors(2), []int32{0}) ||
		!slices.Equal(g.Neighbors(3), []int32{0}) {
		t.Fatalf("M = %d, rows = %v %v %v %v", g.M(),
			g.Neighbors(0), g.Neighbors(1), g.Neighbors(2), g.Neighbors(3))
	}
}

// FuzzFromPairs checks FromPairs against builderModel, and
// EachEdgeSlot against IndexOf on the graph it builds. data[0] is
// the node count (0–255); bit 0 of data[1] lets endpoints fall in
// [-2, n+2) instead of [0, n), and bit 1 drops the last endpoint so the
// list has odd length. Every following byte is one endpoint.
func FuzzFromPairs(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 2, 1, 1, 2, 0, 3, 0, 0, 2})
	f.Add([]byte{5, 1, 0, 7, 3, 2})
	f.Add([]byte{9, 2, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, mode := int(data[0]), data[1]
		id := func(c byte) int32 { return int32(int(c) % max(n, 1)) }
		if mode&1 != 0 {
			id = func(c byte) int32 { return int32(int(c)%(n+4) - 2) }
		}
		ends := make([]int32, 0, len(data)-2)
		for _, c := range data[2:] {
			ends = append(ends, id(c))
		}
		if odd := mode&2 != 0; len(ends) > 0 && (len(ends)%2 != 0) != odd {
			ends = ends[:len(ends)-1]
		}
		checkFromPairs(t, n, ends)
	})
}

// checkBuilderOps decodes data into operations that build a pair list
// step by step, applies each to the list and to builderModel, and fails
// on the first answer of FromPairs' graph that differs from the model's.
// data[0] is the node count (0–255); every following 3-byte chunk is one
// operation: an opcode and two node ids in [-2, n+2), so out-of-range
// ids occur. An add appends the pair; a pair with an endpoint out of
// range must make FromPairs reject the list with ErrNodeRange and is
// left off. Queries (HasEdge, Degree, N and M, every row) ask the graph
// FromPairs builds from the list so far. Burst operations add 32 pairs
// at once, so short inputs still build dense graphs.
func checkBuilderOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	n := int(data[0])
	md, _ := newBuilderModel(n, nil)
	var ends []int32
	var g *Graph // FromPairs(n, ends); nil after an add
	built := func() *Graph {
		t.Helper()
		if g == nil {
			var err error
			if g, err = FromPairs(n, ends); err != nil {
				t.Fatalf("FromPairs on %d in-range pairs: %v", len(ends)/2, err)
			}
		}
		return g
	}
	add := func(u, v int) {
		t.Helper()
		if !md.inRange(u) || !md.inRange(v) {
			if _, err := FromPairs(n, append(ends[:len(ends):len(ends)], int32(u), int32(v))); !errors.Is(err, ErrNodeRange) {
				t.Fatalf("FromPairs with (%d, %d) appended = %v, want ErrNodeRange", u, v, err)
			}
			return
		}
		ends = append(ends, int32(u), int32(v))
		md.add(u, v)
		g = nil
	}
	id := func(c byte) int { return int(c)%(n+4) - 2 }
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		u, v := id(data[1]), id(data[2])
		switch data[0] % 16 {
		case 0, 1, 2, 3, 4:
			add(u, v)
		case 5, 6, 7:
			if got, want := built().HasEdge(u, v), md.hasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, v, got, want)
			}
		case 8, 9:
			if got, want := built().Degree(u), md.degree(u); got != want {
				t.Fatalf("Degree(%d) = %d, want %d", u, got, want)
			}
		case 10, 11:
			if g := built(); g.M() != md.m || g.N() != n {
				t.Fatalf("M, N = %d, %d; want %d, %d", g.M(), g.N(), md.m, n)
			}
		case 12, 13, 14:
			if n == 0 {
				continue
			}
			for k := 0; k < 32; k++ {
				add((int(data[1])+k)%n, (int(data[1])+k*(int(data[2])+1))%n)
			}
		case 15:
			checkFrozen(t, built(), md)
		}
	}
	checkFrozen(t, built(), md)
}

// TestBuilderMatchesModel runs long random operation sequences through
// checkBuilderOps; on 255 nodes they add thousands of edges.
func TestBuilderMatchesModel(t *testing.T) {
	for s, n := range []byte{255, 160, 40, 7} {
		r := rand.New(rand.NewPCG(uint64(s), 1))
		data := make([]byte, 1+3*3000)
		for i := range data {
			data[i] = byte(r.UintN(256))
		}
		data[0] = n
		checkBuilderOps(t, data)
	}
}

// FuzzBuilder checks pair lists built step by step against builderModel
// on arbitrary operation sequences (see checkBuilderOps).
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 2, 2, 15, 0, 0})
	f.Add([]byte{5, 0, 2, 3, 0, 3, 2, 5, 3, 2, 8, 2, 0, 15, 0, 0})
	f.Add([]byte{200, 12, 0, 7, 13, 50, 3, 14, 9, 199, 15, 0, 0, 12, 1, 1, 5, 2, 3})
	f.Fuzz(checkBuilderOps)
}
