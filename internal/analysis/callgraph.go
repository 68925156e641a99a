package analysis

// callgraph.go is the interprocedural layer: a package-local
// static call graph built from the typed AST, on which analyzers build
// bounded context-insensitive summaries ("does this function
// transitively fsync").
//
// Scope and soundness limits, deliberately chosen:
//
//   - Nodes are the package's own function and method declarations with
//     bodies. Callees outside the package have no node — analyzers that
//     care about stdlib effects (os.WriteFile, time.Sleep) recognize
//     those at the call site and use the graph only to propagate the
//     effect through in-package helpers.
//   - Edges are static: direct calls to package-level functions, method
//     calls resolved through the receiver's named type, and interface
//     method calls resolved to every in-package concrete type whose
//     method set satisfies the interface (the context-insensitive
//     over-approximation). Calls through function-typed variables and
//     method values are NOT edges — a summary never sees them, which is
//     the documented unsoundness escape for callback-heavy code.
//   - Calls made inside nested function literals are attributed to the
//     enclosing declaration, with the edge marked Async when the
//     literal (or call) sits under a `go` statement and Deferred when
//     under a `defer`. A deferred call still runs inside the caller's
//     activation, so summaries usually include it; an async call does
//     not run inside its spawner, so e.g. errdrop excludes Async edges.
//
// Summaries built on the graph must be bounded: PropagateUp caps both
// the sweep count and the witness chain length, so recursion (a cycle in
// the graph) converges instead of diverging.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// A CallEdge is one static call from a package function to another.
type CallEdge struct {
	Caller *types.Func
	Callee *types.Func
	Site   *ast.CallExpr
	// Kind is "direct" (package-level function), "method" (resolved
	// through a named receiver type) or "interface" (resolved to an
	// in-package implementation of the interface method).
	Kind string
	// Async marks a call under a `go` statement: it runs concurrently
	// with the caller, not inside its activation.
	Async bool
	// Deferred marks a call under a `defer` statement: it runs at the
	// caller's exit, still inside its activation.
	Deferred bool
}

// A CallGraph is the package-local static call graph of one type-checked
// package.
type CallGraph struct {
	pkg   *types.Package
	decls map[*types.Func]*ast.FuncDecl
	edges map[*types.Func][]CallEdge
	// funcs is every declared function in source order — the stable
	// iteration order for String and PropagateUp.
	funcs []*types.Func
}

// NewCallGraph builds the call graph of one package from its typed AST.
func NewCallGraph(pkg *types.Package, info *types.Info, files []*ast.File) *CallGraph {
	g := &CallGraph{
		pkg:   pkg,
		decls: make(map[*types.Func]*ast.FuncDecl),
		edges: make(map[*types.Func][]CallEdge),
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
			g.funcs = append(g.funcs, fn)
		}
	}
	// Concrete method index for interface resolution: every in-package
	// named type's method name -> *types.Func; pointer receivers are
	// covered by checking satisfaction against *T below.
	impls := g.implIndex()
	for _, fn := range g.funcs {
		g.addEdges(fn, g.decls[fn].Body, info, impls, false, false)
	}
	return g
}

// implIndex maps method name -> candidate concrete methods declared in
// this package, for interface-call resolution.
func (g *CallGraph) implIndex() map[string][]*types.Func {
	impls := make(map[string][]*types.Func)
	for fn := range g.decls {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			impls[fn.Name()] = append(impls[fn.Name()], fn)
		}
	}
	return impls
}

// addEdges walks one statement tree collecting call edges for caller,
// tracking go/defer context. Function literals are flattened into the
// enclosing declaration (their calls carry the context flags).
func (g *CallGraph) addEdges(caller *types.Func, n ast.Node, info *types.Info, impls map[string][]*types.Func, async, deferred bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			g.addEdges(caller, n.Call, info, impls, true, deferred)
			return false
		case *ast.DeferStmt:
			g.addEdges(caller, n.Call, info, impls, async, true)
			return false
		case *ast.CallExpr:
			for _, e := range g.resolve(n, info, impls) {
				e.Caller, e.Async, e.Deferred = caller, async, deferred
				g.edges[caller] = append(g.edges[caller], e)
			}
		}
		return true
	})
}

// resolve returns the in-package callees of one call expression with
// their edge kinds (Caller and context flags are filled by the caller).
func (g *CallGraph) resolve(call *ast.CallExpr, info *types.Info, impls map[string][]*types.Func) []CallEdge {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && g.decls[fn] != nil {
			return []CallEdge{{Callee: fn, Site: call, Kind: "direct"}}
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if !ok {
			// Package-qualified call (pkg.F): never in-package.
			return nil
		}
		m, ok := sel.Obj().(*types.Func)
		if !ok {
			return nil
		}
		if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
			return g.resolveInterface(m, iface, call, impls)
		}
		if g.decls[m] != nil {
			return []CallEdge{{Callee: m, Site: call, Kind: "method"}}
		}
	}
	return nil
}

// resolveInterface finds every in-package concrete method that can be
// the dynamic target of an interface method call: the receiver's type
// (or its pointer) must satisfy the interface and the method name match.
func (g *CallGraph) resolveInterface(m *types.Func, iface *types.Interface, call *ast.CallExpr, impls map[string][]*types.Func) []CallEdge {
	var edges []CallEdge
	for _, cand := range impls[m.Name()] {
		recv := cand.Type().(*types.Signature).Recv().Type()
		// Satisfaction is checked against *T: the pointer method set is
		// the superset, so both value- and pointer-receiver impls match.
		t := recv
		if p, ok := recv.(*types.Pointer); ok {
			t = p.Elem()
		}
		if types.Implements(types.NewPointer(t), iface) {
			edges = append(edges, CallEdge{Callee: cand, Site: call, Kind: "interface"})
		}
	}
	// Deterministic order for golden tests and stable diagnostics.
	sort.Slice(edges, func(i, j int) bool {
		return funcDisplayName(edges[i].Callee) < funcDisplayName(edges[j].Callee)
	})
	return edges
}

// DeclOf returns the syntax of an in-package function, or nil.
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Funcs returns the package's declared functions in source order.
func (g *CallGraph) Funcs() []*types.Func { return g.funcs }

// StaticCallee resolves a call expression to its single static
// in-package callee: a direct call or a concrete method call. Interface
// calls (several possible targets) and out-of-package callees return
// nil — use Callees for the full set.
func (g *CallGraph) StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && g.decls[fn] != nil {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			if m, ok := sel.Obj().(*types.Func); ok && g.decls[m] != nil {
				return m
			}
		}
	}
	return nil
}

// maxWitnessChain bounds how many in-package hops a propagated summary
// witness records — and, together with the sweep cap in PropagateUp,
// keeps summaries bounded on recursive call graphs.
const maxWitnessChain = 8

// PropagateUp computes the transitive "may reach a seeded function"
// summary: starting from seed (function -> witness describing its
// intrinsic effect, e.g. "os.WriteFile"), every caller whose edges —
// filtered by include (nil keeps all) — reach a seeded or summarized
// function is marked with a witness chain ("saveJob → os.WriteFile").
// The fixpoint is bounded by the function count and witness chains by
// maxWitnessChain, so recursion converges.
func (g *CallGraph) PropagateUp(seed map[*types.Func]string, include func(CallEdge) bool) map[*types.Func]string {
	out := make(map[*types.Func]string, len(seed))
	for fn, w := range seed {
		out[fn] = w
	}
	for sweep := 0; sweep <= len(g.funcs); sweep++ {
		changed := false
		for _, caller := range g.funcs {
			if _, done := out[caller]; done {
				continue
			}
			for _, e := range g.edges[caller] {
				if include != nil && !include(e) {
					continue
				}
				w, ok := out[e.Callee]
				if !ok {
					continue
				}
				if strings.Count(w, " → ") >= maxWitnessChain {
					w = funcDisplayName(e.Callee)
				} else {
					w = funcDisplayName(e.Callee) + " → " + w
				}
				out[caller] = w
				changed = true
				break
			}
		}
		if !changed {
			break
		}
	}
	return out
}

// calleeFunc resolves the function or method a call expression invokes,
// in-package or not; nil for builtins, conversions and dynamic calls
// through function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[fun]; ok {
			f, _ := s.Obj().(*types.Func)
			return f
		}
		if f, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedRecvName returns the receiver's named-type name (through one
// pointer), or "" when the receiver is unnamed.
func namedRecvName(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// funcDisplayName renders a function for witnesses and golden output:
// "F" for functions, "(T).M" / "(*T).M" for methods.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		if named, ok := p.Elem().(*types.Named); ok {
			return fmt.Sprintf("(*%s).%s", named.Obj().Name(), fn.Name())
		}
	}
	if named, ok := recv.(*types.Named); ok {
		return fmt.Sprintf("(%s).%s", named.Obj().Name(), fn.Name())
	}
	return fn.Name()
}

// String renders the graph in the compact form the golden tests pin: one
// line per edge, "caller -> callee [kind]" with " go"/" defer" suffixes
// for async/deferred context, callers in source order and edges in
// call-site order.
func (g *CallGraph) String() string {
	var sb strings.Builder
	for _, caller := range g.funcs {
		for _, e := range g.edges[caller] {
			fmt.Fprintf(&sb, "%s -> %s [%s]", funcDisplayName(caller), funcDisplayName(e.Callee), e.Kind)
			if e.Async {
				sb.WriteString(" go")
			}
			if e.Deferred {
				sb.WriteString(" defer")
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
