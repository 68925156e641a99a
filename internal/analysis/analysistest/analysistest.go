// Package analysistest runs accuvet analyzers over fixture packages in
// testdata and checks their findings against // want "regexp"
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest
// on top of this repository's stdlib-only framework.
//
// A fixture is one directory of Go files, type-checked under a caller
// chosen import path (so scope-sensitive analyzers see the package they
// expect) against stub dependency packages mapped to their production
// import paths. Expectations are trailing comments:
//
//	for k := range m { // want `map iteration order is random`
//
// An expectation may also close another line comment, as in
//
//	//accu:allow nosuch -- reason // want `not an accuvet analyzer`
//
// Every diagnostic must be matched by an expectation on its line and
// every expectation must fire, otherwise the test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
)

// Fixture describes one analyzer run over a testdata package.
type Fixture struct {
	// Dir is the fixture source directory, relative to the test's
	// working directory (e.g. "testdata/src/maporder_core").
	Dir string

	// ImportPath is the path the fixture is type-checked as; pick one
	// that lands in the analyzer's scope (e.g. ".../internal/core").
	ImportPath string

	// Deps maps import paths to stub source directories, type-checked
	// on demand when the fixture (or another stub) imports them.
	Deps map[string]string
}

// Run analyzes the fixture with the given analyzer and reports any
// mismatch between diagnostics and // want expectations through t.
func Run(t *testing.T, a *analysis.Analyzer, fx Fixture) {
	t.Helper()
	RunAll(t, []*analysis.Analyzer{a}, fx)
}

// RunAll analyzes the fixture with several analyzers against one shared
// want set — for fixtures whose expectations span analyzers, such as the
// multi-name //accu:allow directive tests.
func RunAll(t *testing.T, analyzers []*analysis.Analyzer, fx Fixture) {
	t.Helper()
	fset, files, diags := diagnostics(t, analyzers, fx)
	wants, err := collectWants(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	checkDiagnostics(t, fset, diags, wants)
}

// Diagnostics analyzes the fixture and returns the raw findings without
// comparing them to want expectations — for scope tests that assert a
// fixture produces nothing under an out-of-scope import path.
func Diagnostics(t *testing.T, a *analysis.Analyzer, fx Fixture) (*token.FileSet, []*ast.File, []analysis.Diagnostic) {
	t.Helper()
	return diagnostics(t, []*analysis.Analyzer{a}, fx)
}

func diagnostics(t *testing.T, analyzers []*analysis.Analyzer, fx Fixture) (*token.FileSet, []*ast.File, []analysis.Diagnostic) {
	t.Helper()

	fset := token.NewFileSet()
	files, err := parseDir(fset, fx.Dir)
	if err != nil {
		t.Fatal(err)
	}

	imp, err := newFixtureImporter(fset, fx.Deps, append([]*ast.File(nil), files...))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.TypeCheck(fset, imp, fx.ImportPath, files)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return fset, files, diags
}

// want is one expectation: a regexp anchored to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE matches the expectation list after "want": a sequence of
// double-quoted or backquoted regexp literals.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants extracts // want expectations from the fixture comments.
func collectWants(fset *token.FileSet, files []*ast.File) ([]*want, error) {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The expectation may trail another line comment, such as
				// an //accu:allow directive that is itself a finding.
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				text := c.Text[i+len("// want "):]
				pos := fset.Position(c.Pos())
				lits := wantRE.FindAllString(text, -1)
				if len(lits) == 0 {
					return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, lit := range lits {
					pattern := lit
					if strings.HasPrefix(lit, "\"") {
						var err error
						pattern, err = strconv.Unquote(lit)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want literal %s: %v", pos, lit, err)
						}
					} else {
						pattern = strings.Trim(lit, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// checkDiagnostics matches findings against expectations one-to-one by
// line.
func checkDiagnostics(t *testing.T, fset *token.FileSet, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseDir parses every .go file in dir, in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysistest: no Go files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// fixtureImporter resolves stub packages from testdata directories and
// everything else (the standard library) from compiler export data.
type fixtureImporter struct {
	fset    *token.FileSet
	deps    map[string]string
	std     types.Importer
	checked map[string]*types.Package
}

// newFixtureImporter builds the importer, resolving export data for
// every standard-library import reachable from the given files and the
// stub directories in one `go list` invocation.
func newFixtureImporter(fset *token.FileSet, deps map[string]string, roots []*ast.File) (*fixtureImporter, error) {
	im := &fixtureImporter{
		fset:    fset,
		deps:    deps,
		checked: make(map[string]*types.Package),
	}

	// Union of imports across fixture and stubs, minus the stubs
	// themselves, is the standard-library demand set.
	stdSet := make(map[string]bool)
	addImports := func(files []*ast.File) {
		for _, f := range files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if _, isStub := deps[path]; !isStub && path != "unsafe" {
					stdSet[path] = true
				}
			}
		}
	}
	addImports(roots)
	for _, dir := range deps {
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		addImports(files)
	}

	paths := make([]string, 0, len(stdSet))
	for p := range stdSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports := map[string]string{}
	if len(paths) > 0 {
		var err error
		exports, err = analysis.ExportData("", paths...)
		if err != nil {
			return nil, err
		}
	}
	im.std = analysis.ExportImporter(fset, exports)
	return im, nil
}

// Import implements types.Importer; stub packages type-check lazily and
// recursively through the same importer.
func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.checked[path]; ok {
		return pkg, nil
	}
	dir, ok := im.deps[path]
	if !ok {
		return im.std.Import(path)
	}
	files, err := parseDir(im.fset, dir)
	if err != nil {
		return nil, err
	}
	pkg, err := analysis.TypeCheck(im.fset, im, path, files)
	if err != nil {
		return nil, err
	}
	im.checked[path] = pkg.Types
	return pkg.Types, nil
}
