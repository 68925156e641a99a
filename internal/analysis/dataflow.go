package analysis

// dataflow.go is the forward dataflow engine the path-sensitive
// analyzers run over a CFG. The lattice is a reaching-facts set: a fact
// is any comparable key (a lock expression, a cancel-func object, ...)
// mapped to the position that generated it, the join is set union
// ("may reach"), and the transfer function is supplied per analysis as
// a gen/kill mutation over one block node.
//
// With union join and gen/kill transfers the analysis is monotone over
// a finite domain (facts originate at fixed program points), so the
// round-robin iteration below terminates; a hard sweep cap guards
// against a non-monotone transfer misbehaving.

import (
	"go/ast"
	"go/token"
)

// Facts is one dataflow state: each live fact keyed by an arbitrary
// comparable value, carrying the position that generated it (used to
// report at the origin when the fact reaches function exit).
type Facts map[any]token.Pos

func (f Facts) clone() Facts {
	c := make(Facts, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func factsEqual(a, b Facts) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// A BranchRefine sharpens facts along one conditional edge. When a
// block with two or more successors ends in an expression (an `if` or
// `for` condition, a switch tag, a range operand), refine is called once
// per outgoing edge with that expression, the successor ordinal (the
// builder orders the true/body edge first, so branch 0 means "condition
// held" for if/for heads) and a private copy of the facts crossing the
// edge, which it may mutate. Refiners must check the condition's shape —
// not every multi-successor block ends in a boolean guard — and, like
// transfer functions, must be deterministic kill-only mutations.
//
// The canonical use is nil-guard refinement: `resp, err := client.Do(req)`
// followed by `if err != nil { return err }` — the error branch carries
// no live response (Do's contract), so an analyzer tracking resp kills
// the fact on branch 0 of the `err != nil` condition instead of falsely
// reporting the early return as a leak.
type BranchRefine func(cond ast.Expr, branch int, facts Facts)

// ForwardMayRefined propagates facts forward through the graph with
// union join until fixpoint. transfer is applied to every node of a block
// in order and mutates the fact set (add to gen, delete to kill). It must
// be deterministic and gen/kill-shaped; it runs multiple times per node
// across sweeps, so it must not have side effects such as reporting —
// report from the returned sets instead. Facts crossing a conditional
// edge pass through refine, when it is non-nil, before joining the
// successor's in-set.
//
// It returns the facts flowing INTO each block and, for convenience, the
// facts reaching the synthetic exit — i.e. facts that survive on at least
// one path from entry to a return (or terminal call). Blocks unreachable
// from the entry keep empty in-sets.
func (g *CFG) ForwardMayRefined(transfer func(n ast.Node, facts Facts), refine BranchRefine) (in map[*Block]Facts, exit Facts) {
	preds := make(map[*Block][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}

	in = make(map[*Block]Facts, len(g.Blocks))
	out := make(map[*Block]Facts, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = Facts{}
		out[b] = Facts{}
	}

	// edgeFacts returns the facts flowing from p into b, applying the
	// branch refinement when p ends in a condition with several
	// successors. The ordinal is b's first position in p.Succs (the
	// builder never emits duplicate conditional edges to one block with
	// different meanings).
	edgeFacts := func(p, b *Block) Facts {
		if refine == nil || len(p.Succs) < 2 || len(p.Nodes) == 0 {
			return out[p]
		}
		cond, ok := p.Nodes[len(p.Nodes)-1].(ast.Expr)
		if !ok {
			return out[p]
		}
		branch := -1
		for i, s := range p.Succs {
			if s == b {
				branch = i
				break
			}
		}
		if branch < 0 {
			return out[p]
		}
		f := out[p].clone()
		refine(cond, branch, f)
		return f
	}

	// Round-robin over blocks in index order (approximately reverse
	// post-order for the structured graphs the builder emits). The
	// sweep cap bounds a misbehaving transfer; well-formed gen/kill
	// transfers stabilize in O(loop nesting depth) sweeps.
	maxSweeps := 8*len(g.Blocks) + 32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, b := range g.Blocks {
			newIn := Facts{}
			for _, p := range preds[b] {
				for k, v := range edgeFacts(p, b) {
					if _, ok := newIn[k]; !ok {
						newIn[k] = v
					}
				}
			}
			in[b] = newIn
			f := newIn.clone()
			for _, n := range b.Nodes {
				transfer(n, f)
			}
			if !factsEqual(out[b], f) {
				out[b] = f
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in, in[g.Exit()]
}

// walkBlockNode walks one CFG block node, pruning nested function
// literals (their bodies execute under their own CFG, not here). When
// skipDefers is set, defer statements are pruned too: their calls run
// at function exit, not at the defer site. fn returns whether to
// descend into the node's children.
func walkBlockNode(n ast.Node, skipDefers bool, fn func(n ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if skipDefers {
			if _, ok := n.(*ast.DeferStmt); ok {
				return false
			}
		}
		return fn(n)
	})
}

// funcBodies visits every function body in the files: declarations and
// nested literals alike, each exactly once. fn receives the body; the
// enclosing node (FuncDecl or FuncLit) is passed for position context.
func funcBodies(files []*ast.File, fn func(enclosing ast.Node, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n, n.Body)
				}
			case *ast.FuncLit:
				fn(n, n.Body)
			}
			return true
		})
	}
}
