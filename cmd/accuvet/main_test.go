package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
)

// TestRepoIsClean is the lint smoke test: the suite must run clean over
// this repository, exactly as `make lint` / CI invoke it.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"github.com/accu-sim/accu/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("accuvet exit %d on clean repo:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestSyntheticViolationFails builds a throwaway module containing a
// deterministic-package map iteration that appends in map order and
// asserts the checker fails on it.
func TestSyntheticViolationFails(t *testing.T) {
	dir := t.TempDir()
	corePkg := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(corePkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		filepath.Join(corePkg, "bad.go"): `package core

// Keys leaks map iteration order into its result.
func Keys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "map iteration order is random") || !strings.Contains(out, "[maporder]") {
		t.Fatalf("missing maporder finding in output:\n%s", out)
	}
}

// TestListAnalyzers: -list names exactly the five analyzers.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	want := []string{"maporder", "seedflow", "scratchescape", "errdrop", "wiretag"}
	var got []string
	for _, line := range strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, want %v:\n%s", got, want, stdout.String())
	}
}

// TestVetProtocolFlags: the go command interrogates -flags before
// passing anything through; the answer must be valid JSON (accuvet
// exposes no extra flags, so an empty array).
func TestVetProtocolFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("-flags output = %q, want []", got)
	}
}

// TestJSONOutput: findings serialize as JSON with positions.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "github.com/accu-sim/accu/internal/rng"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean package JSON = %q, want []", got)
	}
}

// TestSuggestMode builds a throwaway module with one live violation and
// one already-allowed violation: -suggest prints both (the allowed one
// marked), suggests the //accu:allow syntax for the live one, and exits
// 1 because a live finding remains.
func TestSuggestMode(t *testing.T) {
	dir := t.TempDir()
	corePkg := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(corePkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		filepath.Join(corePkg, "bad.go"): `package core

import "sort"

// Keys leaks map iteration order into its result.
func Keys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys is the audited exception.
func SortedKeys(m map[int]bool) []int {
	var keys []int
	//accu:allow maporder -- key collection only; sorted before return
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-suggest", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (one live finding)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, fragment := range []string{
		"//accu:allow maporder",
		"to suppress",
		"(allowed)",
	} {
		if !strings.Contains(out, fragment) {
			t.Errorf("missing %q in -suggest output:\n%s", fragment, out)
		}
	}

	// Exit-code consistency: the plain run sees only the live finding
	// and must agree with -suggest's verdict.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("plain run exit = %d, want 1", code)
	}
}

// TestWireLock drives the lockfile cycle on a throwaway module: snapshot
// the //accu:wire schemas, verify a clean diff, then rename a wire field
// and assert the drift fails the run.
func TestWireLock(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	wire := filepath.Join(pkg, "wire.go")
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		wire: `package sim

// Line is one journal record.
//
//accu:wire
type Line struct {
	Cell  string ` + "`json:\"cell\"`" + `
	Count int    ` + "`json:\"count\"`" + `
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	lock := filepath.Join(dir, "wire.lock.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-wire-lock", lock, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write-wire-lock exit = %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(lock)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"example.test/internal/sim"`) || !strings.Contains(string(data), `"cell"`) {
		t.Fatalf("lockfile missing schema:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-wire-lock", lock, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -wire-lock exit = %d\n%s", code, stderr.String())
	}

	// A wire rename: same Go field, new json name. The analyzer cannot
	// see it (the tag is still explicit and unique); the lockfile must.
	renamed := strings.Replace(string(files[wire]), `json:"count"`, `json:"n"`, 1)
	if err := os.WriteFile(wire, []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-wire-lock", lock, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("drifted -wire-lock exit = %d, want 1\n%s", code, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "wire drift") || !strings.Contains(out, `"count" -> "n"`) {
		t.Errorf("missing drift detail:\n%s", out)
	}
}

// TestDedupSort: duplicate findings collapse and output ordering is by
// file, line, column, analyzer — independent of insertion order.
func TestDedupSort(t *testing.T) {
	fset := token.NewFileSet()
	fileB := fset.AddFile("b.go", -1, 100)
	fileA := fset.AddFile("a.go", -1, 100)
	posB := fileB.Pos(10)
	posA1 := fileA.Pos(50)
	posA2 := fileA.Pos(5)

	diags := []analysis.Diagnostic{
		{Pos: posB, Analyzer: "maporder", Message: "m3"},
		{Pos: posA1, Analyzer: "errdrop", Message: "m2"},
		{Pos: posA2, Analyzer: "seedflow", Message: "m1"},
		{Pos: posA1, Analyzer: "errdrop", Message: "m2"}, // exact duplicate
	}
	got := dedupSort(fset, diags)
	if len(got) != 3 {
		t.Fatalf("got %d findings after dedup, want 3", len(got))
	}
	wantOrder := []string{"m1", "m2", "m3"}
	for i, d := range got {
		if d.Message != wantOrder[i] {
			t.Errorf("position %d: got %q, want %q", i, d.Message, wantOrder[i])
		}
	}
}
