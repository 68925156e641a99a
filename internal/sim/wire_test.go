package sim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/dist"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/wire_schema.json from the wire structs")

// wireTypes are the structs marked //accu:wire: journal lines, HTTP
// payloads and persisted documents, whose field layout is a
// compatibility contract.
var wireTypes = []reflect.Type{
	reflect.TypeOf(dist.FailRequest{}),
	reflect.TypeOf(dist.Lease{}),
	reflect.TypeOf(dist.LeaseRequest{}),
	reflect.TypeOf(dist.LeaseResponse{}),
	reflect.TypeOf(dist.RangeStatus{}),
	reflect.TypeOf(dist.Status{}),
	reflect.TypeOf(dist.UploadResponse{}),
	reflect.TypeOf(serv.Job{}),
	reflect.TypeOf(serv.PolicyResult{}),
	reflect.TypeOf(serv.PolicySpec{}),
	reflect.TypeOf(serv.Progress{}),
	reflect.TypeOf(serv.Result{}),
	reflect.TypeOf(serv.Spec{}),
	reflect.TypeOf(serv.SubmitRequest{}),
	reflect.TypeOf(sim.CellKey{}),
	reflect.TypeOf(sim.CellLine{}),
	reflect.TypeOf(sim.Record{}),
	reflect.TypeOf(stats.SketchCentroid{}),
	reflect.TypeOf(stats.SketchSnapshot{}),
	reflect.TypeOf(stats.WelfordSnapshot{}),
}

type wireField struct {
	Name string `json:"name"`
	JSON string `json:"json"`
	Type string `json:"type"`
}

type wireSchema struct {
	Package string      `json:"package"`
	Name    string      `json:"name"`
	Fields  []wireField `json:"fields"`
}

// TestWireStructsTagged pins the wire contract. wireTypes must list
// exactly the structs marked //accu:wire in the module; every exported,
// non-embedded field must carry an explicit json name, unique within its
// struct (encoding/json otherwise falls back to the Go name, or drops
// both duplicates); and the schema — fields, json names, types and order
// — must equal testdata/wire_schema.json. After a deliberate wire change,
// regenerate the golden file with
//
//	go test ./internal/sim -run Wire -update
func TestWireStructsTagged(t *testing.T) {
	listed := map[string]bool{}
	for _, typ := range wireTypes {
		listed[typ.PkgPath()+"."+typ.Name()] = true
	}
	marked := markedWireStructs(t)
	for key := range marked {
		if !listed[key] {
			t.Errorf("%s is marked //accu:wire but missing from wireTypes", key)
		}
	}
	for key := range listed {
		if !marked[key] {
			t.Errorf("%s is in wireTypes but not marked //accu:wire", key)
		}
	}

	var schemas []wireSchema
	for _, typ := range wireTypes {
		s := wireSchema{Package: typ.PkgPath(), Name: typ.Name(), Fields: []wireField{}}
		seen := map[string]string{}
		claim := func(name, field string) {
			if prev, dup := seen[name]; dup {
				t.Errorf("%s: json name %q of %s duplicates %s; encoding/json drops both", typ, name, field, prev)
			}
			seen[name] = field
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			s.Fields = append(s.Fields, wireField{Name: f.Name, JSON: name, Type: f.Type.String()})
			switch {
			case f.Anonymous && name == "":
				for j := 0; j < f.Type.NumField(); j++ { // promoted fields share the object
					pf := f.Type.Field(j)
					if pn, _, _ := strings.Cut(pf.Tag.Get("json"), ","); pf.IsExported() && pn != "-" {
						claim(pn, f.Name+"."+pf.Name)
					}
				}
			case name == "":
				t.Errorf("%s.%s has no explicit json name; encoding/json would fall back to the field name", typ, f.Name)
			case name != "-":
				claim(name, f.Name)
			}
		}
		schemas = append(schemas, s)
	}
	sort.Slice(schemas, func(i, j int) bool {
		a, b := schemas[i], schemas[j]
		return a.Package < b.Package || a.Package == b.Package && a.Name < b.Name
	})

	golden := filepath.Join("testdata", "wire_schema.json")
	if *update {
		data, err := json.MarshalIndent(schemas, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want []wireSchema
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for _, d := range diffSchemas(want, schemas) {
		t.Error(d)
	}
}

// diffSchemas reports the drift from want to got, one line per change,
// matching structs by package and name and fields by Go name: a struct
// or field added or removed, a json name or type changed, and the shared
// fields reordered. A reorder counts because it is the one layout change
// that still compiles with unkeyed literals.
func diffSchemas(want, got []wireSchema) []string {
	index := func(ss []wireSchema) map[string]wireSchema {
		m := map[string]wireSchema{}
		for _, s := range ss {
			m[s.Package+"."+s.Name] = s
		}
		return m
	}
	wantBy, gotBy := index(want), index(got)
	var drift []string
	for _, w := range want {
		key := w.Package + "." + w.Name
		g, ok := gotBy[key]
		if !ok {
			drift = append(drift, fmt.Sprintf("wire struct %s was removed; old decoders still expect it", key))
			continue
		}
		gotFields := map[string]wireField{}
		for _, f := range g.Fields {
			gotFields[f.Name] = f
		}
		var wantOrder, gotOrder []string
		wantFields := map[string]bool{}
		for _, wf := range w.Fields {
			wantFields[wf.Name] = true
			gf, ok := gotFields[wf.Name]
			switch {
			case !ok:
				drift = append(drift, fmt.Sprintf("%s: field %s (json %q) was removed", key, wf.Name, wf.JSON))
				continue
			case gf.JSON != wf.JSON:
				drift = append(drift, fmt.Sprintf("%s.%s: json name changed %q -> %q", key, wf.Name, wf.JSON, gf.JSON))
			}
			if gf.Type != wf.Type {
				drift = append(drift, fmt.Sprintf("%s.%s: type changed %s -> %s", key, wf.Name, wf.Type, gf.Type))
			}
			wantOrder = append(wantOrder, wf.Name)
		}
		for _, gf := range g.Fields {
			if !wantFields[gf.Name] {
				drift = append(drift, fmt.Sprintf("%s: field %s (json %q) is new", key, gf.Name, gf.JSON))
				continue
			}
			gotOrder = append(gotOrder, gf.Name)
		}
		if !slices.Equal(wantOrder, gotOrder) {
			drift = append(drift, fmt.Sprintf("%s: fields reordered %v -> %v", key, wantOrder, gotOrder))
		}
	}
	for _, g := range got {
		if key := g.Package + "." + g.Name; wantBy[key].Name == "" {
			drift = append(drift, fmt.Sprintf("wire struct %s is new", key))
		}
	}
	if len(drift) > 0 {
		drift = append(drift, "if the change is deliberate, run: go test ./internal/sim -run Wire -update")
	}
	return drift
}

// markedWireStructs parses the module's non-test Go files and returns
// the structs whose doc comment carries an //accu:wire line, keyed by
// import path and name.
func markedWireStructs(t *testing.T) map[string]bool {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	modPath, _, _ := bytes.Cut(bytes.TrimPrefix(mod, []byte("module ")), []byte("\n"))
	marked := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // fixtures, tool caches, nested modules
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := string(modPath)
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if _, isStruct := ts.Type.(*ast.StructType); isStruct && (hasWireMarker(gd.Doc) || hasWireMarker(ts.Doc)) {
					marked[pkg+"."+ts.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return marked
}

func hasWireMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if c.Text == "//accu:wire" {
			return true
		}
	}
	return false
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestCellLineWireFormat pins the exact journal-line encoding byte for
// byte: the line EncodeCellLine writes, and json.Marshal's, its oracle.
// CellLine is shared by the on-disk cell journal and the dist cell-upload
// stream; any drift here breaks replay of existing journals and
// mixed-version coordinator/worker clusters.
func TestCellLineWireFormat(t *testing.T) {
	line := sim.CellLine{
		CellKey: sim.CellKey{Network: 2, Run: 7},
		Records: []sim.Record{
			{Policy: "abm", Network: 2, Run: 7},
			{Policy: "random", Network: 2, Run: 7, Result: &core.Result{
				Policy: "random",
				Steps: []core.Step{
					{User: 41, Accepted: true, Gain: 52, BenefitAfter: 52},
					{User: 9, Cautious: true, Gain: 0.5, BenefitAfter: 52.5, CautiousFriendsAfter: 1},
				},
				Benefit: 52.5, Friends: 1, CautiousFriends: 1,
				Journal: &osn.Journal{Users: []int{41, 9}, BatchSizes: []int{2}},
			}},
		},
	}
	want := `{"network":2,"run":7,"records":[{"Policy":"abm","Network":2,"Run":7,"Result":null},` +
		`{"Policy":"random","Network":2,"Run":7,"Result":{"Policy":"random","Steps":[` +
		`{"User":41,"Accepted":true,"Cautious":false,"Gain":52,"BenefitAfter":52,"CautiousFriendsAfter":0},` +
		`{"User":9,"Accepted":false,"Cautious":true,"Gain":0.5,"BenefitAfter":52.5,"CautiousFriendsAfter":1}],` +
		`"Benefit":52.5,"Friends":1,"CautiousFriends":1,"Journal":{"Users":[41,9],"BatchSizes":[2]}}}]}`
	got, err := sim.EncodeCellLine(&line)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want+"\n" {
		t.Errorf("EncodeCellLine drifted:\n got %s\nwant %s", got, want)
	}
	oracle, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	if string(oracle) != want {
		t.Errorf("CellLine wire format drifted:\n got %s\nwant %s", oracle, want)
	}
}
