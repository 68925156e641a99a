package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a function body and builds its graph. src is the body
// of `func f(...)`, with params fixed per test via the decl literal.
func buildCFG(t *testing.T, decl string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+decl, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return NewCFG(fd.Body)
		}
	}
	t.Fatal("no function declaration in source")
	return nil
}

// TestCFGGoldenEdges pins the block/edge structure of every structured
// statement the builder lowers. The golden form is CFG.String(): one
// line per block, "b<i> <kind> -> succs".
func TestCFGGoldenEdges(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "if with early return",
			src: `func f(c bool) {
				x := 1
				if c {
					return
				}
				x++
				_ = x
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3 b4
b3 if.then -> b1
b4 if.join -> b1`,
		},
		{
			name: "if else both branches join",
			src: `func f(c bool) {
				if c {
					work()
				} else {
					rest()
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3 b4
b3 if.then -> b5
b4 if.else -> b5
b5 if.join -> b1`,
		},
		{
			name: "for with break and continue",
			src: `func f(n int) {
				for i := 0; i < n; i++ {
					if i == 3 {
						break
					}
					if i == 1 {
						continue
					}
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3
b3 for.head -> b4 b5
b4 for.body -> b7 b8
b5 for.join -> b1
b6 for.post -> b3
b7 if.then -> b5
b8 if.join -> b9 b10
b9 if.then -> b6
b10 if.join -> b6`,
		},
		{
			name: "for without condition has no exit edge",
			src: `func f() {
				for {
					work()
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3
b3 for.head -> b4
b4 for.body -> b3
b5 for.join -> b1`,
		},
		{
			name: "range loop",
			src: `func f(xs []int) {
				s := 0
				for _, x := range xs {
					s += x
				}
				_ = s
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3
b3 range.head -> b4 b5
b4 range.body -> b3
b5 range.join -> b1`,
		},
		{
			name: "switch with fallthrough and default",
			src: `func f(x int) {
				switch x {
				case 1:
					fallthrough
				case 2:
					x = 2
				default:
					x = 3
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3 b4 b5
b3 switch.case -> b4
b4 switch.case -> b6
b5 switch.default -> b6
b6 switch.join -> b1`,
		},
		{
			name: "switch without default edges past the cases",
			src: `func f(x int) {
				switch x {
				case 1:
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3 b4
b3 switch.case -> b4
b4 switch.join -> b1`,
		},
		{
			name: "select leaves only through its cases",
			src: `func f(ch chan int) {
				select {
				case v := <-ch:
					_ = v
				default:
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3 b4
b3 select.case -> b5
b4 select.default -> b5
b5 select.join -> b1`,
		},
		{
			name: "panic is terminal",
			src: `func f(c bool) {
				defer cleanup()
				if c {
					panic("x")
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3 b4
b3 if.then -> b1
b4 if.join -> b1`,
		},
		{
			name: "goto and label form a loop",
			src: `func f(n int) {
				i := 0
			loop:
				if i < n {
					i++
					goto loop
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3
b3 label.loop -> b4 b5
b4 if.then -> b3
b5 if.join -> b1`,
		},
		{
			name: "labeled break exits the outer loop",
			src: `func f() {
			outer:
				for {
					for {
						break outer
					}
				}
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b3
b3 label.outer -> b4
b4 for.head -> b5
b5 for.body -> b7
b6 for.join -> b1
b7 for.head -> b8
b8 for.body -> b6
b9 for.join -> b4`,
		},
		{
			name: "statements after return are predecessor-less",
			src: `func f() int {
				return 1
				println("dead")
			}`,
			want: `
b0 entry -> b2
b1 exit
b2 body -> b1
b3 unreachable -> b1`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := buildCFG(t, tc.src)
			got := strings.TrimSpace(g.String())
			want := strings.TrimSpace(tc.want)
			if got != want {
				t.Errorf("graph mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCFGDefers pins defer collection: every defer at any structured
// depth is collected, in source order, while nested literals' defers are
// not.
func TestCFGDefers(t *testing.T) {
	g := buildCFG(t, `func f(c bool) {
		defer first()
		if c {
			defer second()
		}
		go func() {
			defer notMine()
		}()
	}`)
	if len(g.Defers) != 2 {
		t.Fatalf("got %d defers, want 2 (nested literal's defer excluded)", len(g.Defers))
	}
}

// TestForwardMayRefinedEarlyReturn exercises the dataflow engine on the
// shape httpbody cares about: a fact generated before a conditional early
// return survives to the exit on the unbalanced path only, unless the
// branch refinement kills it on the early-return edge.
func TestForwardMayRefinedEarlyReturn(t *testing.T) {
	// gen() generates the fact, kill() kills it. The early return leaks.
	g := buildCFG(t, `func f(c bool) {
		gen()
		if c {
			return
		}
		kill()
	}`)
	transfer := func(n ast.Node, facts Facts) {
		walkBlockNode(n, true, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "gen":
					facts["fact"] = call.Pos()
				case "kill":
					delete(facts, "fact")
				}
			}
			return true
		})
	}
	if _, exit := g.ForwardMayRefined(transfer, nil); len(exit) != 1 {
		t.Fatalf("unbalanced function: got %d exit facts, want 1", len(exit))
	}

	// Refined variant: the fact is dead on the true edge of the early
	// return's condition (as a response is on the `err != nil` edge).
	refine := func(cond ast.Expr, branch int, facts Facts) {
		if branch == 0 {
			delete(facts, "fact")
		}
	}
	if _, exit := g.ForwardMayRefined(transfer, refine); len(exit) != 0 {
		t.Fatalf("refined unbalanced function: got %d exit facts, want 0", len(exit))
	}

	// Balanced variant: killed on both paths, nothing reaches the exit.
	g = buildCFG(t, `func f(c bool) {
		gen()
		if c {
			kill()
			return
		}
		kill()
	}`)
	if _, exit := g.ForwardMayRefined(transfer, nil); len(exit) != 0 {
		t.Fatalf("balanced function: got %d exit facts, want 0", len(exit))
	}

	// Loop variant: a kill inside the loop body does not cover the
	// zero-iteration path.
	g = buildCFG(t, `func f(n int) {
		gen()
		for i := 0; i < n; i++ {
			kill()
		}
	}`)
	if _, exit := g.ForwardMayRefined(transfer, nil); len(exit) != 1 {
		t.Fatalf("loop function: got %d exit facts, want 1 (zero-iteration path leaks)", len(exit))
	}
}
