package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HTTPBody returns the response-body hygiene analyzer: every
// *http.Response a function obtains must have its Body closed on every
// CFG path to function exit, and a body that is closed without ever
// being read should be drained first so the keep-alive connection can be
// reused. Both checks see through in-package helpers via call-graph
// parameter summaries: a `drainClose(resp.Body)` helper that closes (and
// drains) its argument discharges the obligation at the call site.
//
// Discharges on a path: resp.Body.Close() (directly or deferred),
// passing resp or resp.Body to an in-package helper whose summary closes
// it, or transferring ownership — returning resp, storing it, sending
// it, or passing the whole response to a function outside the package
// (conservative: the analyzer cannot see whether it closes). Passing
// only resp.Body to an unknown function (json.NewDecoder(resp.Body)) is
// a read, not a discharge — the classic leak shape stays flagged.
//
// The err-nil idiom is handled by branch refinement: after
// `resp, err := client.Do(req)`, the `err != nil` branch carries no live
// response (the Client contract), so early error returns do not flag.
func HTTPBody() *Analyzer {
	a := &Analyzer{
		Name: "httpbody",
		Doc: "require every *http.Response body to be closed on all CFG paths " +
			"(through in-package helpers too), and drained before Close when " +
			"it was never read, so keep-alive connections are reused",
	}
	a.Run = func(pass *Pass) error {
		cg := NewCallGraph(pass.Pkg, pass.Info, pass.Files)
		argIs := func(arg ast.Expr, p *types.Var) bool { return exprIsParamOrBody(pass, arg, p) }
		closes := cg.ParamSummary(pass.Info, func(_ *types.Func, decl *ast.FuncDecl, p *types.Var) bool {
			return paramBodyClosed(pass, decl, p)
		}, argIs)
		drains := cg.ParamSummary(pass.Info, func(_ *types.Func, decl *ast.FuncDecl, p *types.Var) bool {
			return paramBodyDrained(pass, decl, p)
		}, argIs)
		funcBodies(pass.Files, func(_ ast.Node, body *ast.BlockStmt) {
			checkBodyPaths(pass, cg, closes, body)
			checkBodyDrain(pass, cg, closes, drains, body)
		})
		return nil
	}
	return a
}

// respFact keys one unclosed response in the dataflow state: the
// response variable plus the error variable assigned alongside it (nil
// when the producing call returns no error), which the branch refinement
// uses to kill the fact on `err != nil` paths.
type respFact struct {
	resp types.Object
	err  types.Object
}

func isHTTPResponsePtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	return ok && isNamed(p.Elem(), "net/http", "Response")
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is an interface type implementing the
// built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); !ok {
		return false
	}
	return types.Implements(t, errorIface)
}

// closeReceiver recognizes `x.Body.Close()` and `x.Close()` and returns
// the base identifier x plus the `x.Body` selector node (nil for the
// bare-closer shape).
func closeReceiver(call *ast.CallExpr) (*ast.Ident, *ast.SelectorExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
		return nil, nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return x, nil
	case *ast.SelectorExpr:
		if x.Sel.Name == "Body" {
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				return id, x
			}
		}
	}
	return nil, nil
}

// exprIsParamOrBody reports whether arg denotes p itself or p.Body.
func exprIsParamOrBody(pass *Pass, arg ast.Expr, p *types.Var) bool {
	switch a := ast.Unparen(arg).(type) {
	case *ast.Ident:
		return pass.Info.Uses[a] == p
	case *ast.SelectorExpr:
		if a.Sel.Name != "Body" {
			return false
		}
		id, ok := ast.Unparen(a.X).(*ast.Ident)
		return ok && pass.Info.Uses[id] == p
	}
	return false
}

// paramBodyClosed is the intrinsic close summary: the body contains
// `p.Close()` or `p.Body.Close()` (deferred counts — it runs in this
// activation).
func paramBodyClosed(pass *Pass, decl *ast.FuncDecl, p *types.Var) bool {
	if decl == nil || decl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, _ := closeReceiver(call); id != nil && pass.Info.Uses[id] == p {
				found = true
			}
		}
		return !found
	})
	return found
}

// paramBodyDrained is the intrinsic drain summary: the body copies p (or
// p.Body) into a sink via io.Copy/io.CopyN or reads it with io.ReadAll.
func paramBodyDrained(pass *Pass, decl *ast.FuncDecl, p *types.Var) bool {
	if decl == nil || decl.Body == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		f := calleeFunc(pass, call)
		if f == nil || f.Pkg() == nil || f.Pkg().Path() != "io" {
			return !found
		}
		var src ast.Expr
		switch f.Name() {
		case "Copy", "CopyN":
			if len(call.Args) >= 2 {
				src = call.Args[1]
			}
		case "ReadAll":
			if len(call.Args) >= 1 {
				src = call.Args[0]
			}
		}
		// A bounded drain via io.LimitReader(p, n) still drains.
		if lr, ok := ast.Unparen(src).(*ast.CallExpr); ok && len(lr.Args) >= 1 {
			if lf := calleeFunc(pass, lr); lf != nil && lf.Pkg() != nil &&
				lf.Pkg().Path() == "io" && lf.Name() == "LimitReader" {
				src = lr.Args[0]
			}
		}
		if src != nil && exprIsParamOrBody(pass, src, p) {
			found = true
		}
		return !found
	})
	return found
}

// respAssign recognizes `resp, err := <call>` (or `resp := <call>`, `=`,
// or a var declaration) where the call produces a *http.Response, and
// returns the call plus the response and error identifiers (errID nil
// when the call returns no error or it is blanked).
func respAssign(pass *Pass, n ast.Node) (call *ast.CallExpr, respID, errID *ast.Ident) {
	var lhs, rhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs, rhs = n.Lhs, n.Rhs
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || len(gd.Specs) != 1 {
			return nil, nil, nil
		}
		vs, ok := gd.Specs[0].(*ast.ValueSpec)
		if !ok {
			return nil, nil, nil
		}
		rhs = vs.Values
		for _, name := range vs.Names {
			lhs = append(lhs, name)
		}
	default:
		return nil, nil, nil
	}
	if len(rhs) != 1 {
		return nil, nil, nil
	}
	c, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, nil, nil
	}
	tv, ok := pass.Info.Types[c]
	if !ok {
		return nil, nil, nil
	}
	ident := func(i int) *ast.Ident {
		if i >= len(lhs) {
			return nil
		}
		if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && id.Name != "_" {
			return id
		}
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isHTTPResponsePtr(t.At(i).Type()) {
				respID = ident(i)
			} else if isErrorType(t.At(i).Type()) {
				errID = ident(i)
			}
		}
	default:
		if isHTTPResponsePtr(tv.Type) {
			respID = ident(0)
		}
	}
	if respID == nil {
		return nil, nil, nil
	}
	return c, respID, errID
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// killResp deletes every fact tracking obj.
func killResp(facts Facts, obj types.Object) {
	if obj == nil {
		return
	}
	for k := range facts {
		if f, ok := k.(respFact); ok && f.resp == obj {
			delete(facts, k)
		}
	}
}

// killIdentMention discharges a response whose whole value is used as e:
// returned, stored, sent — ownership transferred.
func killIdentMention(pass *Pass, facts Facts, e ast.Expr) {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		killResp(facts, pass.Info.Uses[id])
	}
}

// checkBodyPaths runs the close-on-all-paths dataflow over one body.
func checkBodyPaths(pass *Pass, cg *CallGraph, closes map[*types.Func]map[int]bool, body *ast.BlockStmt) {
	cfg := NewCFG(body)

	transfer := func(n ast.Node, facts Facts) {
		// Kills first (defers included: a deferred Close registered on
		// this path covers every later exit).
		walkBlockNode(n, false, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if id, _ := closeReceiver(m); id != nil {
					killResp(facts, pass.Info.Uses[id])
				}
				callee := cg.StaticCallee(pass.Info, m)
				for j, arg := range m.Args {
					switch a := ast.Unparen(arg).(type) {
					case *ast.Ident:
						obj := pass.Info.Uses[a]
						if obj == nil {
							continue
						}
						// Whole response handed to a helper: an
						// in-package callee discharges only if its
						// summary closes it; an unknown callee is a
						// conservative ownership transfer.
						if callee == nil || closes[callee][j] {
							killResp(facts, obj)
						}
					case *ast.SelectorExpr:
						// resp.Body handed to a close-summarized helper
						// discharges; to anything else it is only a read.
						if a.Sel.Name != "Body" || callee == nil || !closes[callee][j] {
							continue
						}
						if id, ok := ast.Unparen(a.X).(*ast.Ident); ok {
							killResp(facts, pass.Info.Uses[id])
						}
					}
				}
			case *ast.AssignStmt:
				for _, r := range m.Rhs {
					killIdentMention(pass, facts, r)
				}
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					killIdentMention(pass, facts, r)
				}
			case *ast.SendStmt:
				killIdentMention(pass, facts, m.Value)
			case *ast.CompositeLit:
				for _, el := range m.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					killIdentMention(pass, facts, el)
				}
			}
			return true
		})
		// Gens second: a reassignment replaces the old obligation.
		if call, respID, errID := respAssign(pass, n); call != nil {
			if obj := identObj(pass, respID); obj != nil {
				killResp(facts, obj)
				var errObj types.Object
				if errID != nil {
					errObj = identObj(pass, errID)
				}
				facts[respFact{resp: obj, err: errObj}] = call.Pos()
			}
		}
	}

	// Branch refinement: on the `err != nil` edge the paired response is
	// nil (http.Client contract), so the obligation dies with it.
	refine := func(cond ast.Expr, branch int, facts Facts) {
		bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
			return
		}
		idSide := bin.X
		if isNilExpr(pass, bin.X) {
			idSide = bin.Y
		} else if !isNilExpr(pass, bin.Y) {
			return
		}
		id, ok := ast.Unparen(idSide).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return
		}
		errHolds := 0 // builder orders the true edge first
		if bin.Op == token.EQL {
			errHolds = 1
		}
		if branch != errHolds {
			return
		}
		for k := range facts {
			if f, ok := k.(respFact); ok && f.err != nil && f.err == obj {
				delete(facts, k)
			}
		}
	}

	_, exit := cfg.ForwardMayRefined(transfer, refine)
	for k, pos := range exit {
		f := k.(respFact)
		pass.Reportf(pos,
			"%s's response body is not closed on every path to function exit, which leaks the connection; defer %s.Body.Close() once the error has been checked",
			f.resp.Name(), f.resp.Name())
	}
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}

// checkBodyDrain flags responses whose body is closed but never read:
// the closed-but-undrained shape prevents net/http from reusing the
// keep-alive connection. The check is function-granular (any read of the
// body anywhere in the function counts), trading path precision for a
// near-zero false-positive rate.
func checkBodyDrain(pass *Pass, cg *CallGraph, closes, drains map[*types.Func]map[int]bool, body *ast.BlockStmt) {
	type bodyUse struct {
		closePos token.Pos
		read     bool
	}
	tracked := make(map[types.Object]*bodyUse)
	walkBlockNode(body, false, func(n ast.Node) bool {
		if _, respID, _ := respAssign(pass, n); respID != nil {
			if obj := identObj(pass, respID); obj != nil && tracked[obj] == nil {
				tracked[obj] = &bodyUse{}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// Close sites consume their `resp.Body` mention; everything else
	// mentioning the body is read evidence.
	consumed := make(map[ast.Node]bool)
	walkBlockNode(body, false, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, bodySel := closeReceiver(call); id != nil {
			if st := tracked[pass.Info.Uses[id]]; st != nil {
				if st.closePos == token.NoPos {
					st.closePos = call.Pos()
				}
				if bodySel != nil {
					consumed[bodySel] = true
				}
			}
		}
		callee := cg.StaticCallee(pass.Info, call)
		if callee == nil {
			return true
		}
		for j, arg := range call.Args {
			if !closes[callee][j] {
				continue
			}
			a := ast.Unparen(arg)
			var base *ast.Ident
			switch a := a.(type) {
			case *ast.Ident:
				base = a
			case *ast.SelectorExpr:
				if a.Sel.Name == "Body" {
					base, _ = ast.Unparen(a.X).(*ast.Ident)
				}
			}
			if base == nil {
				continue
			}
			if st := tracked[pass.Info.Uses[base]]; st != nil {
				if st.closePos == token.NoPos {
					st.closePos = call.Pos()
				}
				if drains[callee][j] {
					st.read = true
				}
				consumed[a] = true
			}
		}
		return true
	})
	walkBlockNode(body, false, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Body" || consumed[sel] {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if st := tracked[pass.Info.Uses[id]]; st != nil {
			st.read = true
		}
		return true
	})

	for obj, st := range tracked {
		if st.closePos != token.NoPos && !st.read {
			pass.Reportf(st.closePos,
				"%s's body is closed but never read or drained; io.Copy(io.Discard, %s.Body) before Close so the keep-alive connection is reused",
				obj.Name(), obj.Name())
		}
	}
}
