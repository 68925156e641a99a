package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoundTripEdgeList(t *testing.T) {
	g := pairs(t, 5, 0, 1, 1, 2, 3, 4)

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: N=%d M=%d, want N=%d M=%d", g2.N(), g2.M(), g.N(), g.M())
	}
	g.EachEdge(func(u, v int) bool {
		if !g2.HasEdge(u, v) {
			t.Errorf("edge (%d,%d) lost", u, v)
		}
		return true
	})
}

func TestReadEdgeListSparseIDsAndComments(t *testing.T) {
	in := `# a comment

100 200
200	300
300 100
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3/3", g.N(), g.M())
	}
}

func TestReadEdgeListDirectedDuplicatesCollapse(t *testing.T) {
	in := "0 1\n1 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"one field", "42\n"},
		{"non-numeric u", "x 1\n"},
		{"non-numeric v", "1 y\n"},
	}
	for _, tc := range cases {
		if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# nothing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("N=%d M=%d, want empty", g.N(), g.M())
	}
}
