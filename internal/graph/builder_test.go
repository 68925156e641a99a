package graph

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// builderModel is the reference the Builder must answer exactly like: one
// Go map of neighbours per node.
type builderModel struct {
	adj []map[int]bool
	m   int
}

func (md *builderModel) inRange(u int) bool { return u >= 0 && u < len(md.adj) }

// addEdge returns AddEdge's expected ok and whether it must fail with
// ErrNodeRange.
func (md *builderModel) addEdge(u, v int) (ok, rangeErr bool) {
	if !md.inRange(u) || !md.inRange(v) {
		return false, true
	}
	if u == v || md.adj[u][v] {
		return false, false
	}
	md.adj[u][v], md.adj[v][u] = true, true
	md.m++
	return true, false
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

// checkBuilderOps decodes data into Builder operations, applies each to a
// Builder and to builderModel, and fails on the first answer that differs.
// data[0] is the node count (0–255); every following 3-byte chunk is one
// operation: an opcode and two node ids in [-2, n+2), so out-of-range ids
// occur. Burst operations add 32 edges at once, so short inputs still
// force several table doublings.
func checkBuilderOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	n := int(data[0])
	b := NewBuilder(n)
	md := &builderModel{adj: make([]map[int]bool, n)}
	for u := range md.adj {
		md.adj[u] = map[int]bool{}
	}
	id := func(c byte) int { return int(c)%(n+4) - 2 }
	add := func(u, v int) {
		t.Helper()
		ok, err := b.AddEdge(u, v)
		wantOK, wantErr := md.addEdge(u, v)
		if ok != wantOK || errors.Is(err, ErrNodeRange) != wantErr || (err != nil) != wantErr {
			t.Fatalf("AddEdge(%d, %d) = %v, %v; want ok=%v rangeErr=%v", u, v, ok, err, wantOK, wantErr)
		}
	}
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		u, v := id(data[1]), id(data[2])
		switch data[0] % 16 {
		case 0, 1, 2, 3, 4:
			add(u, v)
		case 5, 6, 7:
			if got, want := b.HasEdge(u, v), md.hasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, v, got, want)
			}
		case 8, 9:
			if got, want := b.Degree(u), md.degree(u); got != want {
				t.Fatalf("Degree(%d) = %d, want %d", u, got, want)
			}
		case 10, 11:
			if b.M() != md.m || b.N() != n {
				t.Fatalf("M, N = %d, %d; want %d, %d", b.M(), b.N(), md.m, n)
			}
		case 12, 13, 14:
			if n == 0 {
				continue
			}
			for k := 0; k < 32; k++ {
				add((int(data[1])+k)%n, (int(data[1])+k*(int(data[2])+1))%n)
			}
		case 15:
			checkFrozen(t, b.Freeze(), md)
		}
	}
	checkFrozen(t, b.Freeze(), md)
}

// checkFrozen compares a frozen CSR with the model: every row holds
// exactly the model's neighbours in strictly ascending order.
func checkFrozen(t *testing.T, g *Graph, md *builderModel) {
	t.Helper()
	if g.N() != len(md.adj) || g.M() != md.m || g.AdjSize() != 2*md.m {
		t.Fatalf("frozen N, M, AdjSize = %d, %d, %d; want %d, %d, %d",
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

// FuzzBuilder checks the Builder against builderModel on arbitrary
// operation sequences.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 2, 2, 15, 0, 0})
	f.Add([]byte{5, 0, 2, 3, 0, 3, 2, 5, 3, 2, 8, 2, 0, 15, 0, 0})
	f.Add([]byte{200, 12, 0, 7, 13, 50, 3, 14, 9, 199, 15, 0, 0, 12, 1, 1, 5, 2, 3})
	f.Fuzz(checkBuilderOps)
}
