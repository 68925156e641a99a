package analysis

import (
	"go/ast"
)

// TimerLeak returns the leaked-timer analyzer. Two shapes:
//
//   - time.After inside a loop: each iteration allocates a fresh timer
//     that is not collected until it fires, so a tight select-loop with
//     a long timeout accumulates them — the TTL-reaper bug shape. The
//     loop wants one time.NewTimer/NewTicker hoisted out and stopped.
//   - time.Tick anywhere: the returned channel's Ticker has no Stop
//     handle at all, so it runs (and holds its goroutine's timer) for
//     the life of the process. Under go 1.22 (this module's language
//     version) that is an unconditional leak; use time.NewTicker with
//     defer Stop, as internal/dist's lease reaper does.
//
// Loop scope is lexical within one function: a time.After inside a
// function literal is charged to the literal, not to a loop the literal
// merely sits in — the literal may run once, long after the loop.
func TimerLeak() *Analyzer {
	a := &Analyzer{
		Name: "timerleak",
		Doc: "flag time.After inside loops (a timer allocated per iteration, " +
			"uncollected until it fires) and time.Tick anywhere (a Ticker with " +
			"no Stop); use time.NewTimer/NewTicker with defer Stop",
	}
	a.Run = func(pass *Pass) error {
		inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass, call)
			if f == nil || f.Pkg() == nil || f.Pkg().Path() != "time" || !isPackageFunc(f) {
				// Methods are excluded deliberately: time.Time.After is
				// a comparison, not the timer allocator.
				return true
			}
			switch f.Name() {
			case "Tick":
				pass.Reportf(call.Pos(),
					"time.Tick leaks its Ticker (the channel has no Stop handle); use time.NewTicker and defer Stop, as in the reaper pattern")
			case "After":
				if enclosedByLoop(stack) {
					pass.Reportf(call.Pos(),
						"time.After inside a loop allocates a timer every iteration that survives until it fires; hoist a time.NewTimer or NewTicker out of the loop and Stop it")
				}
			}
			return true
		})
		return nil
	}
	return a
}

// enclosedByLoop reports whether the innermost enclosing loop/function
// boundary in the ancestor stack is a loop.
func enclosedByLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
