// Package analysis is a self-contained static-analysis framework plus the
// accuvet analyzer suite that enforces this repository's determinism
// invariants at compile time.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built only on the standard library
// (go/ast, go/types, and the go command for package metadata and export
// data), because this module deliberately carries zero external
// dependencies. Analyzers run over fully type-checked packages, so checks
// are semantic (import-path and object identity), not textual.
//
// Suppression: a comment of the form
//
//	//accu:allow <analyzer>[,<analyzer>...] [-- reason]
//
// on the offending line, or on the line directly above it, silences the
// named analyzers for that line. Every use of the directive should carry
// a reason; it is the audited escape hatch for intentional violations
// (e.g. a map iteration whose output is sorted immediately after).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //accu:allow
	// directives. Lowercase, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Run applies the analyzer to one package. Diagnostics are reported
	// through the pass; the error return is reserved for analyzer
	// failures (not findings).
	Run func(*Pass) error
}

// A Diagnostic is one finding, tied to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string

	// Suppressed marks a finding covered by an //accu:allow directive.
	// The checkers drop suppressed findings; RunAnalyzersAll keeps them
	// so audits and regression tests can pin the allowed sites.
	Suppressed bool
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Path is the package's import path as reported by the build system
	// (test variants stripped by the drivers before analyzers run).
	Path string

	allow       allowIndex
	diagnostics *[]Diagnostic
}

// Reportf records a diagnostic at pos. Findings covered by an
// //accu:allow directive are recorded with Suppressed set; the checkers
// filter them out, audit mode keeps them.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:        pos,
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Suppressed: p.allow.covers(p.Fset, pos, p.Analyzer.Name),
	})
}

// allowIndex maps file -> line -> analyzer names suppressed on that line.
type allowIndex map[string]map[int]map[string]bool

// allowDirective matches the suppression comment. The directive text (after
// "//") must start exactly with "accu:allow".
var allowDirective = regexp.MustCompile(`^//accu:allow\s+([a-z0-9_,\s]+?)\s*(?:--.*)?$`)

// AllowCheck is the Analyzer name on findings about the //accu:allow
// directives themselves. It names no analyzer, so no directive can
// suppress such a finding.
const AllowCheck = "allow"

// buildAllowIndex scans every comment in the files for //accu:allow
// directives. A directive covers its own line and the following line, so
// both trailing comments and standalone comment lines work. A name that
// is not in the suite suppresses nothing and comes back as a finding, so
// a directive cannot silently outlive its analyzer.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var unknown []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					if !knownAnalyzers[name] {
						unknown = append(unknown, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: AllowCheck,
							Message:  fmt.Sprintf("//accu:allow names %q, which is not an accuvet analyzer; the directive suppresses nothing — fix the name or delete it", name),
						})
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := lines[line]
						if set == nil {
							set = make(map[string]bool)
							lines[line] = set
						}
						set[name] = true
					}
				}
			}
		}
	}
	return idx, unknown
}

func (idx allowIndex) covers(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	if idx == nil || !pos.IsValid() {
		return false
	}
	p := fset.Position(pos)
	return idx[p.Filename][p.Line][analyzer]
}

// RunAnalyzers applies every analyzer to the package and returns the
// unsuppressed findings sorted by position. The package's allow
// directives are parsed once and shared across analyzers.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAnalyzersAll(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	diags := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			diags = append(diags, d)
		}
	}
	return diags, nil
}

// RunAnalyzersAll is RunAnalyzers without the suppression filter: allowed
// findings are returned too, with Suppressed set. This is the audit
// surface — it answers "what would fire if the //accu:allow directives
// were removed", which is how regression tests pin that an annotated
// true positive is still detected.
func RunAnalyzersAll(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allow, diags := buildAllowIndex(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			Info:        pkg.Info,
			Path:        pkg.ImportPath,
			allow:       allow,
			diagnostics: &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// inspectWithStack walks every node in the files, keeping the ancestor
// stack. fn receives the node and its ancestors (outermost first) and
// returns whether to descend into the node's children.
func inspectWithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// pkgPathIs reports whether path refers to the module package with the
// given module-relative suffix (e.g. "internal/core"). It matches both
// the in-module form "github.com/accu-sim/accu/internal/core" and the
// bare suffix used by test fixtures.
func pkgPathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pkgPathIn reports whether path matches any of the suffixes.
func pkgPathIn(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPathIs(path, s) {
			return true
		}
	}
	return false
}

// objectPkgIs reports whether obj is declared in the package with the
// given import-path suffix.
func objectPkgIs(obj types.Object, suffix string) bool {
	return obj != nil && obj.Pkg() != nil && pkgPathIs(obj.Pkg().Path(), suffix)
}
