package gen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
)

func TestFixedGenerator(t *testing.T) {
	g, err := graph.FromPairs(3, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := Fixed{G: g, Label: "toy"}
	if f.Name() != "fixed(toy)" {
		t.Errorf("name = %q", f.Name())
	}
	got, err := f.Generate(seed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Error("fixed generator returned a different graph")
	}
	// Same graph for every seed.
	got2, err := f.Generate(seed(2))
	if err != nil {
		t.Fatal(err)
	}
	if got2 != g {
		t.Error("fixed generator not seed-invariant")
	}
}

func TestFixedNilGraph(t *testing.T) {
	if _, err := (Fixed{}).Generate(seed(3)); err == nil {
		t.Error("nil graph: want error")
	}
}

func TestFixedUnlabeledName(t *testing.T) {
	g, err := graph.FromPairs(2, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := Fixed{G: g}
	if !strings.Contains(f.Name(), "n=2") {
		t.Errorf("name = %q", f.Name())
	}
}

func TestLoadEdgeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte("# test\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.G.N() != 3 || f.G.M() != 2 {
		t.Errorf("loaded N=%d M=%d", f.G.N(), f.G.M())
	}
	if f.Name() != "fixed(edges.txt)" {
		t.Errorf("name = %q", f.Name())
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	if _, err := LoadEdgeList("/nonexistent/edges.txt"); err == nil {
		t.Error("missing file: want error")
	}
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("not numbers\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEdgeList(path); err == nil {
		t.Error("bad content: want error")
	}
}
