package analysis

import (
	"go/ast"
	"go/types"
)

// scratchPackages are where per-worker scratch state lives and where the
// ownership discipline is enforced. Outside these, the scratch types
// don't appear (or appear as opaque values the discipline doesn't cover).
var scratchPackages = []string{
	"internal/sim",
	"internal/core",
}

// scratchOwnerTypes names concrete pooled types that are per-worker
// scratch even though they don't implement core.Reusable themselves:
// the Runner's pooled attack state and the state buffers it recycles.
var scratchOwnerTypes = map[string]map[string]bool{
	"internal/core": {"Runner": true},
	"internal/osn":  {"State": true},
}

// ScratchEscape returns the scratch-ownership analyzer for the parallel
// engine. Per-worker scratch — anything implementing core.Reusable
// (pooled policies with reusable buffers) or holding pooled attack state
// (core.Runner, osn.State) — is owned by exactly one worker goroutine at
// a time. Handing such a value to another goroutine, sending it on a
// channel, or parking it in a package-level variable or a foreign
// struct's field breaks that ownership: two workers end up mutating one
// buffer, which the race detector only catches if the schedules collide.
//
// Flagged escapes:
//   - a scratch-typed free variable captured by (or passed to) a `go`
//     statement's function,
//   - a scratch value sent on a channel,
//   - a scratch value stored in a package-level variable or a field of a
//     type declared outside the scratch packages.
//
// Intentional transfers (a worker handing its scratch to a goroutine
// that becomes its sole owner, then re-arming with fresh scratch) are
// the audited exception: annotate with
// //accu:allow scratchescape -- <why>.
func ScratchEscape() *Analyzer {
	a := &Analyzer{
		Name: "scratchescape",
		Doc: "forbid per-worker scratch (core.Reusable policies, pooled attack " +
			"state) from escaping its worker via goroutines, channels or shared variables",
	}
	a.Run = func(pass *Pass) error {
		if !pkgPathIn(pass.Path, scratchPackages) {
			return nil
		}
		reusable := findReusableInterface(pass)
		sc := &scratchClassifier{reusable: reusable, memo: make(map[types.Type]bool)}
		if reusable == nil && !hasScratchOwnerImport(pass) {
			// Neither the interface nor the named owner types are
			// visible; nothing in this package can be classified.
			return nil
		}

		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					checkGoStmt(pass, sc, n)
				case *ast.SendStmt:
					if t := exprType(pass, n.Value); t != nil && sc.isScratch(t) {
						pass.Reportf(n.Value.Pos(),
							"per-worker scratch of type %s is sent on a channel; the receiver shares the worker's buffers",
							typeStr(pass, t))
					}
				case *ast.AssignStmt:
					checkScratchStores(pass, sc, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkGoStmt flags scratch values that cross into a spawned goroutine,
// either as call arguments or as free variables captured by a function
// literal. Variables declared inside the literal belong to the new
// goroutine and are fine.
func checkGoStmt(pass *Pass, sc *scratchClassifier, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if t := exprType(pass, arg); t != nil && sc.isScratch(t) {
			pass.Reportf(arg.Pos(),
				"per-worker scratch of type %s is passed to a goroutine; the spawned goroutine shares the worker's buffers",
				typeStr(pass, t))
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	// Objects declared inside the literal (including its params) are
	// owned by the new goroutine; everything else it mentions is free.
	local := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || local[obj] || reported[obj] || obj.IsField() {
			return true
		}
		if sc.isScratch(obj.Type()) {
			reported[obj] = true
			pass.Reportf(id.Pos(),
				"goroutine captures per-worker scratch %s (type %s); the spawned goroutine shares the worker's buffers",
				obj.Name(), typeStr(pass, obj.Type()))
		}
		return true
	})
}

// checkScratchStores flags assignments that park scratch where another
// goroutine can reach it: package-level variables, or fields of types
// declared outside the scratch packages (those cross the API boundary
// and outlive the worker's ownership window).
func checkScratchStores(pass *Pass, sc *scratchClassifier, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		t := exprType(pass, n.Rhs[i])
		if t == nil || !sc.isScratch(t) {
			continue
		}
		switch dst := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			v, ok := pass.Info.Uses[dst].(*types.Var)
			if ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				pass.Reportf(lhs.Pos(),
					"per-worker scratch of type %s is stored in package-level variable %s; any goroutine can now reach it",
					typeStr(pass, t), v.Name())
			}
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[dst]
			if !ok {
				continue
			}
			field, ok := sel.Obj().(*types.Var)
			if !ok || field.Pkg() == nil {
				continue
			}
			if !pkgPathIn(field.Pkg().Path(), scratchPackages) {
				pass.Reportf(lhs.Pos(),
					"per-worker scratch of type %s is stored in field %s of package %s; it outlives the worker's ownership",
					typeStr(pass, t), field.Name(), field.Pkg().Path())
			}
		}
	}
}

// scratchClassifier decides whether a type is (or transitively holds)
// per-worker scratch.
type scratchClassifier struct {
	reusable *types.Interface
	memo     map[types.Type]bool
}

func (sc *scratchClassifier) isScratch(t types.Type) bool {
	return sc.classify(t, make(map[types.Type]bool), 0)
}

func (sc *scratchClassifier) classify(t types.Type, seen map[types.Type]bool, depth int) bool {
	t = types.Unalias(t)
	if depth > 8 || seen[t] {
		return false
	}
	seen[t] = true
	if v, ok := sc.memo[t]; ok {
		return v
	}

	res := sc.classifyUncached(t, seen, depth)
	// Memoize only top-level verdicts; mid-recursion results depend on
	// the cycle guard and would be unsafe to reuse.
	if depth == 0 {
		sc.memo[t] = res
	}
	return res
}

func (sc *scratchClassifier) classifyUncached(t types.Type, seen map[types.Type]bool, depth int) bool {
	// Pointers to scratch carry the same aliasing hazard as the value.
	if p, ok := t.(*types.Pointer); ok {
		return sc.classify(p.Elem(), seen, depth+1)
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			for pkg, names := range scratchOwnerTypes {
				if pkgPathIs(obj.Pkg().Path(), pkg) && names[obj.Name()] {
					return true
				}
			}
		}
		if sc.reusable != nil && concreteImplements(t, sc.reusable) {
			return true
		}
		return sc.classify(named.Underlying(), seen, depth+1)
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		// An interface value may hold scratch exactly when the
		// Reusable contract is part of its method set.
		return sc.reusable != nil && types.Implements(t, sc.reusable)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if sc.classify(u.Field(i).Type(), seen, depth+1) {
				return true
			}
		}
	case *types.Slice:
		return sc.classify(u.Elem(), seen, depth+1)
	case *types.Array:
		// Zero-length arrays (atomic.Pointer's [0]*T alignment trick)
		// hold nothing.
		if u.Len() > 0 {
			return sc.classify(u.Elem(), seen, depth+1)
		}
	case *types.Map:
		return sc.classify(u.Key(), seen, depth+1) || sc.classify(u.Elem(), seen, depth+1)
	case *types.Chan:
		return sc.classify(u.Elem(), seen, depth+1)
	}
	return false
}

// concreteImplements reports whether t or *t satisfies iface — pointer
// receivers included, the common shape for Reusable implementations.
func concreteImplements(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// findReusableInterface locates core.Reusable in this package or its
// imports. Returns nil when the interface isn't visible here.
func findReusableInterface(pass *Pass) *types.Interface {
	lookup := func(pkg *types.Package) *types.Interface {
		if pkg == nil || !pkgPathIs(pkg.Path(), "internal/core") {
			return nil
		}
		obj, ok := pkg.Scope().Lookup("Reusable").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	if iface := lookup(pass.Pkg); iface != nil {
		return iface
	}
	for _, imp := range pass.Pkg.Imports() {
		if iface := lookup(imp); iface != nil {
			return iface
		}
	}
	return nil
}

// hasScratchOwnerImport reports whether any named owner type's package is
// visible from this one.
func hasScratchOwnerImport(pass *Pass) bool {
	check := func(pkg *types.Package) bool {
		for suffix := range scratchOwnerTypes {
			if pkgPathIs(pkg.Path(), suffix) {
				return true
			}
		}
		return false
	}
	if check(pass.Pkg) {
		return true
	}
	for _, imp := range pass.Pkg.Imports() {
		if check(imp) {
			return true
		}
	}
	return false
}

// exprType returns the static type of e, or nil.
func exprType(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return nil
}

// typeStr renders t relative to the package under analysis.
func typeStr(pass *Pass, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}
