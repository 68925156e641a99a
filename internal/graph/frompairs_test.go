package graph

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// checkFromPairs builds ends with FromPairs and with the Builder oracle
// (NewBuilder, AddEdge on every pair, Freeze) and fails unless both give
// the same CSR, or both reject the list with ErrNodeRange. On the built
// graph it also runs checkEdgeSlots.
func checkFromPairs(t *testing.T, n int, ends []int32) {
	t.Helper()
	got, err := FromPairs(n, ends)

	b := NewBuilder(n)
	wantErr := len(ends)%2 != 0
	for i := 0; i+1 < len(ends) && !wantErr; i += 2 {
		if _, err := b.AddEdge(int(ends[i]), int(ends[i+1])); err != nil {
			wantErr = true
		}
	}
	if wantErr {
		if !errors.Is(err, ErrNodeRange) {
			t.Fatalf("FromPairs(%d, %v) = %v, want ErrNodeRange", n, ends, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("FromPairs(%d, %v): %v", n, ends, err)
	}
	sameCSR(t, got, b.Freeze())
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

// sameCSR fails unless got and want have the same node and edge counts,
// row offsets and rows.
func sameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.AdjSize() != want.AdjSize() {
		t.Fatalf("N, M, AdjSize = %d, %d, %d; want %d, %d, %d",
			got.N(), got.M(), got.AdjSize(), want.N(), want.M(), want.AdjSize())
	}
	if !slices.Equal(got.offsets, want.offsets) {
		t.Fatalf("offsets = %v, want %v", got.offsets, want.offsets)
	}
	if !slices.Equal(got.neighbors, want.neighbors) {
		t.Fatalf("neighbors = %v, want %v", got.neighbors, want.neighbors)
	}
}

// TestFromPairsMatchesBuilder runs random pair lists through
// checkFromPairs: dense lists on few nodes (many repeats and self-loops),
// sparse lists on many nodes (isolated nodes), n of 0 and 1, and lists
// with an out-of-range endpoint or an odd length.
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

// FuzzFromPairs checks FromPairs against the Builder oracle, and
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
