// Command accuvet is the project's static-analysis suite: five analyzers
// for invariants that go vet, staticcheck, the race detector and the
// tests cannot see. maporder, seedflow and scratchescape guard the
// deterministic record path and its per-worker scratch; errdrop tracks
// discarded durability errors over a package-local call graph and
// wiretag locks the wire schema. None needs a control-flow graph.
// An //accu:allow directive that names no analyzer in the suite is
// itself a finding. See DESIGN.md "Determinism invariants & static
// enforcement".
//
// It runs in two modes:
//
//	accuvet ./...                      # standalone, whole-repo analysis
//	go vet -vettool=$(which accuvet) ./...   # as a vet tool, per unit
//
// Standalone mode loads packages through the go command and sees every
// package at once, which the whole-tree wire-schema lockfile (-wire-lock)
// needs; vettool mode follows the -V=full / -flags / unit.cfg protocol
// the go command expects and inherits vet's build caching. Both modes
// type-check each package as its merged test unit but analyze only
// production files, so their verdicts and exit codes agree: 0 clean,
// 1 findings, 2 failure.
//
// -json prints the findings as a JSON array. -suggest prints every
// finding (including ones an //accu:allow directive already covers,
// marked "allowed") together with the suppression comment that would
// silence it — the triage surface for working through new findings.
//
// -wire-lock diffs the //accu:wire struct schemas of the tree against a
// committed lockfile so a silent field rename becomes a build break;
// -write-wire-lock snapshots the current schemas.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/accu-sim/accu/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the checker and returns the process exit code: 0 clean,
// 1 findings, 2 usage or internal failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accuvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		vFlag       = fs.String("V", "", "print version and exit (-V=full, for the go command)")
		flagsFlag   = fs.Bool("flags", false, "print analyzer flags in JSON (for the go command)")
		listFlag    = fs.Bool("list", false, "list analyzers and exit")
		jsonFlag    = fs.Bool("json", false, "emit findings as JSON (standalone mode)")
		suggestFlag = fs.Bool("suggest", false, "print findings with //accu:allow suppression suggestions, including already-allowed ones (standalone mode)")
		wireLock    = fs.String("wire-lock", "", "diff //accu:wire struct schemas against the lock `file`; drift is a finding (standalone mode)")
		writeWire   = fs.String("write-wire-lock", "", "snapshot //accu:wire struct schemas to the lock `file` and exit 0 (standalone mode)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: accuvet [packages]   (default ./...)\n")
		fmt.Fprintf(stderr, "       go vet -vettool=$(which accuvet) [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *vFlag != "":
		return printVersion(*vFlag, stdout, stderr)
	case *flagsFlag:
		// The go command interrogates supported flags before passing any
		// through; accuvet exposes none beyond the protocol set.
		fmt.Fprintln(stdout, "[]")
		return 0
	case *listFlag:
		for _, a := range analysis.NewSuite() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return vetUnitMode(rest[0], stderr)
	}
	opts := standaloneOpts{
		json:          *jsonFlag,
		suggest:       *suggestFlag,
		wireLockPath:  *wireLock,
		writeWireLock: *writeWire,
	}
	return standaloneMode(rest, stdout, stderr, opts)
}

// vetUnitMode analyzes one compilation unit under the go vet protocol.
func vetUnitMode(cfg string, stderr io.Writer) int {
	diags, fset, err := analysis.VetUnit(cfg, analysis.NewSuite())
	if err != nil {
		fmt.Fprintf(stderr, "accuvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return exitCode(len(diags))
}

// standaloneOpts collects the output switches of standalone mode.
type standaloneOpts struct {
	json          bool
	suggest       bool
	wireLockPath  string
	writeWireLock string
}

// standaloneMode loads the patterns from source and analyzes every
// matched package, collecting the wire schemas of the whole tree for the
// lockfile.
func standaloneMode(patterns []string, stdout, stderr io.Writer, opts standaloneOpts) int {
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "accuvet: %v\n", err)
		return 2
	}
	suite := analysis.NewSuite()
	var all []analysis.Diagnostic
	var fset *token.FileSet
	var schemas []analysis.WireSchema
	for _, pkg := range pkgs {
		run := analysis.RunAnalyzers
		if opts.suggest {
			run = analysis.RunAnalyzersAll
		}
		diags, err := run(pkg, suite)
		if err != nil {
			fmt.Fprintf(stderr, "accuvet: %v\n", err)
			return 2
		}
		all = append(all, diags...)
		fset = pkg.Fset
		if opts.wireLockPath != "" || opts.writeWireLock != "" {
			schemas = append(schemas, analysis.CollectWireSchemas(pkg.ImportPath, pkg.Files)...)
		}
	}
	all = dedupSort(fset, all)

	if opts.writeWireLock != "" {
		f, err := os.Create(opts.writeWireLock)
		if err != nil {
			fmt.Fprintf(stderr, "accuvet: %v\n", err)
			return 2
		}
		err = analysis.NewWireLock(schemas).Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "accuvet: wire lock: %v\n", err)
			return 2
		}
		return 0
	}

	// Wire-schema drift has no single source position (the struct moved,
	// or the lockfile is stale), so it reports as driver-level findings
	// that share the findings exit code.
	drift := 0
	if opts.wireLockPath != "" {
		lock, err := analysis.LoadWireLock(opts.wireLockPath)
		if err != nil {
			fmt.Fprintf(stderr, "accuvet: %v\n", err)
			return 2
		}
		for _, line := range lock.Diff(schemas) {
			fmt.Fprintf(stderr, "accuvet: wire drift: %s\n", line)
			drift++
		}
	}

	var code int
	switch {
	case opts.json:
		code = printJSON(stdout, stderr, fset, all)
	case opts.suggest:
		code = printSuggestions(stdout, fset, all)
	default:
		for _, d := range all {
			fmt.Fprintf(stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		code = exitCode(len(all))
	}
	if code == 0 && drift > 0 {
		code = 1
	}
	return code
}

// dedupSort orders findings by position (file, line, column, analyzer)
// and drops exact duplicates, so standalone output is stable across
// go-list orderings and a finding surfaces once even if its package were
// analyzed under several guises.
func dedupSort(fset *token.FileSet, diags []analysis.Diagnostic) []analysis.Diagnostic {
	if fset == nil {
		return diags
	}
	type key struct {
		pos      string
		analyzer string
		message  string
	}
	seen := make(map[key]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := key{fset.Position(d.Pos).String(), d.Analyzer, d.Message}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// printJSON emits the findings as a JSON array on stdout.
func printJSON(stdout, stderr io.Writer, fset *token.FileSet, all []analysis.Diagnostic) int {
	type finding struct {
		Pos        string `json:"pos"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed,omitempty"`
	}
	out := make([]finding, 0, len(all))
	for _, d := range all {
		out = append(out, finding{Pos: fset.Position(d.Pos).String(), Analyzer: d.Analyzer, Message: d.Message, Suppressed: d.Suppressed})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "accuvet: %v\n", err)
		return 2
	}
	return exitCode(len(all))
}

// printSuggestions writes each finding followed by the //accu:allow line
// that would suppress it. Findings already covered by a directive are
// marked "allowed" and do not affect the exit code, matching the plain
// modes' verdict.
func printSuggestions(w io.Writer, fset *token.FileSet, all []analysis.Diagnostic) int {
	active := 0
	for _, d := range all {
		status := ""
		if d.Suppressed {
			status = " (allowed)"
		} else {
			active++
		}
		fmt.Fprintf(w, "%s: %s [%s]%s\n", fset.Position(d.Pos), d.Message, d.Analyzer, status)
		// A stale directive is fixed by editing it, never by another one.
		if !d.Suppressed && d.Analyzer != analysis.AllowCheck {
			fmt.Fprintf(w, "\tto suppress, add on the line above:\n")
			fmt.Fprintf(w, "\t//accu:allow %s -- <why this violation is intentional>\n", d.Analyzer)
		}
	}
	return exitCode(active)
}

// exitCode maps a finding count to the shared process exit code: 0
// clean, 1 findings. Both drivers funnel through it so `go vet
// -vettool` and standalone runs agree.
func exitCode(findings int) int {
	if findings > 0 {
		return 1
	}
	return 0
}

// printVersion implements the -V=full handshake: the go command hashes
// the reported line into its build cache key, so the line must identify
// this exact executable.
func printVersion(v string, stdout, stderr io.Writer) int {
	if v != "full" {
		fmt.Fprintf(stderr, "accuvet: unsupported flag value: -V=%s (use -V=full)\n", v)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "accuvet: %v\n", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(stderr, "accuvet: %v\n", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(stderr, "accuvet: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s version devel accuvet buildID=%02x\n", exe, string(h.Sum(nil)))
	return 0
}
