package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// strictPackages hold the record path: everything they compute must be a
// pure function of the rng.Seed tree, so no effect may depend on map
// iteration order. Module-relative import-path suffixes.
var strictPackages = []string{
	"internal/core",
	"internal/osn",
	"internal/gen",
	"internal/theory",
}

// MapOrder returns the map-iteration analyzer: inside the strict
// deterministic packages it flags `range` over a map whose body has
// order-dependent effects — appending to a slice, consuming a
// *rand.Rand, updating an obs instrument, or writing records. Go
// randomizes map iteration order, so any of these leaks nondeterminism
// into the record stream in a way the race detector cannot see.
//
// Iterations whose results are order-normalized afterwards (e.g. key
// collection followed by sort.Strings) are legitimate; suppress those
// sites with an //accu:allow maporder directive carrying the reason.
func MapOrder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc: "flag map iteration with order-dependent effects (slice appends, " +
			"rand draws, obs updates, record writes) in deterministic packages",
	}
	a.Run = func(pass *Pass) error {
		if !pkgPathIn(pass.Path, strictPackages) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if hazard := mapBodyHazard(pass, rs.Body); hazard != "" {
					pass.Reportf(rs.For,
						"map iteration order is random, but this loop body %s; iterate a sorted or insertion-ordered view instead",
						hazard)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// mapBodyHazard reports the first order-dependent effect found in the
// body of a map-range loop, or "" if the body looks order-insensitive.
func mapBodyHazard(pass *Pass, body *ast.BlockStmt) string {
	var hazard string
	ast.Inspect(body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
				hazard = "appends to a slice"
			}
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[fun]
			if !ok {
				return true
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return true
			}
			switch {
			case receiverPkgPath(m) == "math/rand" || receiverPkgPath(m) == "math/rand/v2":
				hazard = fmt.Sprintf("consumes random numbers (%s.%s)", receiverTypeName(m), m.Name())
			case strings.HasSuffix(receiverPkgPath(m), "internal/obs") || receiverPkgPath(m) == "obs":
				hazard = fmt.Sprintf("updates obs instrument %s.%s in map order", receiverTypeName(m), m.Name())
			case strings.HasPrefix(m.Name(), "Record") || strings.HasPrefix(m.Name(), "Write"):
				hazard = fmt.Sprintf("writes records via %s", m.Name())
			}
		}
		return hazard == ""
	})
	return hazard
}

// receiverPkgPath returns the declaring package path of a method's
// receiver type, or "" when unavailable.
func receiverPkgPath(m *types.Func) string {
	if m.Pkg() == nil {
		return ""
	}
	return m.Pkg().Path()
}

// receiverTypeName returns the bare receiver type name of a method.
func receiverTypeName(m *types.Func) string {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
