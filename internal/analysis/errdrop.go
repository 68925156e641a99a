package analysis

import (
	"go/ast"
	"go/types"
)

// ErrDrop returns the durability error-discard analyzer: an error
// returned by a durability-critical call — a journal commit/fsync, a
// store block write, an atomic tmp+rename document swap — must never be
// discarded, because a swallowed fsync failure silently converts the
// exactly-once/bit-identical-resume guarantees into corruption that only
// surfaces runs later. The discard shapes flagged are the statement call
// (`j.Commit(line)`), the blank assignment (`_ = j.Sync()`), and
// go/defer statements whose call's error has nowhere to go.
//
// The check is interprocedural within the package: PropagateUp marks
// every function whose (non-async) call chain reaches a durable root, so
// discarding `saveJob(...)` is reported with the chain witness
// ("saveJob → os.WriteFile") even though the rename lives two calls
// down. Cross-package, the curated root set is the
// stdlib durable surface (os.WriteFile/Rename, (*os.File).Sync,
// (*bufio.Writer).Flush) plus this module's journal and store writers
// ((*sim.CellJournal).Commit/Sync/Close, sim.Checkpointer,
// (*stats.StoreWriter).Append/Close). Bare (*os.File).Close is
// deliberately NOT a root — close-on-error-path cleanup where the write
// error already propagated is idiomatic and the fsync path is what
// durability actually rides on.
//
// Intentional discards (best-effort cleanup on an already-failing path)
// are the audited exception: //accu:allow errdrop -- <why>.
func ErrDrop() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc: "flag discarded or blank-assigned errors from durability-critical " +
			"call chains (journal commit/sync, store writes, atomic renames), " +
			"interprocedurally through the package call graph",
	}
	a.Run = func(pass *Pass) error {
		cg := NewCallGraph(pass.Pkg, pass.Info, pass.Files)
		seeds := make(map[*types.Func]string)
		for _, fn := range cg.Funcs() {
			if desc := intrinsicDurable(pass, cg.DeclOf(fn)); desc != "" {
				seeds[fn] = desc
			}
		}
		durable := cg.PropagateUp(seeds, func(e CallEdge) bool { return !e.Async })

		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
						reportDroppedDurable(pass, cg, durable, call, "discarded")
					}
				case *ast.DeferStmt:
					reportDroppedDurable(pass, cg, durable, n.Call, "deferred with its error discarded")
				case *ast.GoStmt:
					reportDroppedDurable(pass, cg, durable, n.Call, "spawned with its error discarded")
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 {
						return true
					}
					call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, i := range errResultIndices(pass, call) {
						if i < len(n.Lhs) {
							if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
								reportDroppedDurable(pass, cg, durable, call, "blank-assigned")
								break
							}
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// durableFuncs is the curated set of package-level stdlib durable roots.
var durableFuncs = map[string]map[string]bool{
	"os": {"WriteFile": true, "Rename": true},
}

// durableMethods is the curated stdlib durable-method surface, keyed
// package → receiver named type → method.
var durableMethods = map[string]map[string]map[string]bool{
	"os":    {"File": {"Sync": true}},
	"bufio": {"Writer": {"Flush": true}},
}

// moduleDurableMethods are this module's cross-package durable roots,
// keyed package suffix → receiver named type → method. Checkpointer is
// the interface the engine commits through; CellJournal and StoreWriter
// are the fsyncing implementations; Coordinator.Close flushes and closes
// the fsynced cell journal, so its error is the grid's final durability
// signal.
var moduleDurableMethods = map[string]map[string]map[string]bool{
	"internal/sim": {
		"CellJournal":  {"Commit": true, "Sync": true, "Close": true},
		"Checkpointer": {"Commit": true, "Close": true},
	},
	"internal/stats": {
		"StoreWriter": {"Append": true, "Close": true},
	},
	"internal/dist": {
		"Coordinator": {"Close": true},
	},
}

// durableCall reports whether call invokes a durable root, with a
// display name for the diagnostic.
func durableCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(pass, call)
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	pkg := f.Pkg().Path()
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		if durableFuncs[pkg][f.Name()] {
			return pkg + "." + f.Name(), true
		}
		return "", false
	}
	recv := namedRecvName(sig.Recv().Type())
	if durableMethods[pkg][recv][f.Name()] {
		return "(*" + pkg + "." + recv + ")." + f.Name(), true
	}
	for suffix, types := range moduleDurableMethods {
		if pkgPathIs(pkg, suffix) && types[recv][f.Name()] {
			return "(" + recv + ")." + f.Name(), true
		}
	}
	return "", false
}

// intrinsicDurable scans one declaration body for a durable root call,
// pruning `go` statements (async work does not carry this activation's
// durability); deferred calls count.
func intrinsicDurable(pass *Pass, decl *ast.FuncDecl) string {
	if decl == nil || decl.Body == nil {
		return ""
	}
	desc := ""
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if d, ok := durableCall(pass, call); ok {
				desc = d
				return false
			}
		}
		return true
	})
	return desc
}

// errResultIndices returns the result positions of call that have type
// error; empty when the callee returns none (nothing to drop).
func errResultIndices(pass *Pass, call *ast.CallExpr) []int {
	f := calleeFunc(pass, call)
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

// reportDroppedDurable reports call if it is a durable root (direct or
// via the package summary) returning an error that `how` describes being
// lost.
func reportDroppedDurable(pass *Pass, cg *CallGraph, durable map[*types.Func]string, call *ast.CallExpr, how string) {
	if len(errResultIndices(pass, call)) == 0 {
		return
	}
	desc, ok := durableCall(pass, call)
	if !ok {
		if callee := cg.StaticCallee(pass.Info, call); callee != nil {
			if w, has := durable[callee]; has {
				desc, ok = funcDisplayName(callee)+" → "+w, true
			}
		}
	}
	if !ok {
		return
	}
	pass.Reportf(call.Pos(),
		"error from durable call %s %s; a swallowed fsync/commit failure breaks the durability guarantees — check it, return it, or annotate the intentional best-effort site",
		desc, how)
}
