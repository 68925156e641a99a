package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// WireTag returns the wire-format schema analyzer: a struct marked
//
//	//accu:wire
//
// in its doc comment is part of a serialized format — a journal line, an
// HTTP payload, a persisted job document — so its field layout is a
// compatibility contract, not an implementation detail. For marked
// structs the analyzer enforces:
//
//   - Every exported, non-embedded field carries an explicit `json:`
//     tag. Without one, encoding/json silently falls back to the Go
//     field name, so an innocent rename is a silent wire-format break.
//   - Tag names are unique within the struct (duplicate names make
//     encoding/json drop both fields — a silent data loss).
//   - No unkeyed composite literal of a marked struct anywhere in the
//     package: positional literals silently reshuffle values when
//     fields are reordered.
//
// The marked structs also feed the committed wire-schema lockfile
// (CollectWireSchemas; `accuvet -wire-lock` in the driver), which turns
// any field rename/retype/reorder into a reviewable diff instead of a
// production incident.
func WireTag() *Analyzer {
	a := &Analyzer{
		Name: "wiretag",
		Doc: "enforce explicit, unique json tags and keyed composite literals " +
			"for structs marked //accu:wire (journal lines, HTTP payloads, " +
			"persisted documents)",
	}
	a.Run = func(pass *Pass) error {
		marked := markedWireStructs(pass.Files)
		for _, m := range marked {
			checkWireStruct(pass, m)
		}
		if len(marked) == 0 {
			return nil
		}
		byObj := make(map[types.Object]*wireStruct, len(marked))
		for _, m := range marked {
			if obj := pass.Info.Defs[m.spec.Name]; obj != nil {
				byObj[obj] = m
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				tv, ok := pass.Info.Types[lit]
				if !ok {
					return true
				}
				named, ok := types.Unalias(tv.Type).(*types.Named)
				if !ok {
					return true
				}
				m, isWire := byObj[named.Obj()]
				if !isWire {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				pass.Reportf(lit.Pos(),
					"unkeyed composite literal of wire struct %s; positional fields silently reshuffle wire values when the struct changes — key every field",
					m.spec.Name.Name)
				return true
			})
		}
		return nil
	}
	return a
}

// wireStruct is one //accu:wire-marked struct declaration.
type wireStruct struct {
	spec *ast.TypeSpec
	st   *ast.StructType
}

// isWireMarker reports whether one comment line is the //accu:wire
// directive (optionally with a trailing reason).
func isWireMarker(text string) bool {
	return text == "//accu:wire" || strings.HasPrefix(text, "//accu:wire ")
}

// markedWireStructs collects the struct type declarations whose doc (or
// trailing line) comment carries //accu:wire, in file order.
func markedWireStructs(files []*ast.File) []*wireStruct {
	var out []*wireStruct
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			declMarked := commentHasWireMarker(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				if declMarked || commentHasWireMarker(ts.Doc) || commentHasWireMarker(ts.Comment) {
					out = append(out, &wireStruct{spec: ts, st: st})
				}
			}
		}
	}
	return out
}

func commentHasWireMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if isWireMarker(c.Text) {
			return true
		}
	}
	return false
}

// jsonTagName extracts the json name from a field tag literal; ok is
// false when the tag has no json key at all.
func jsonTagName(tag *ast.BasicLit) (name string, ok bool) {
	if tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(tag.Value)
	if err != nil {
		return "", false
	}
	val, ok := lookupStructTag(raw, "json")
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(val, ','); i >= 0 {
		val = val[:i]
	}
	return val, true
}

// lookupStructTag is reflect.StructTag.Lookup without importing reflect
// into every analyzer build — same conventional syntax.
func lookupStructTag(tag, key string) (string, bool) {
	for tag != "" {
		tag = strings.TrimLeft(tag, " ")
		i := strings.IndexByte(tag, ':')
		if i <= 0 || i+1 >= len(tag) || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		rest := tag[i+2:]
		j := 0
		for j < len(rest) && rest[j] != '"' {
			if rest[j] == '\\' {
				j++
			}
			j++
		}
		if j >= len(rest) {
			break
		}
		val := rest[:j]
		tag = rest[j+1:]
		if name == key {
			unq, err := strconv.Unquote(`"` + val + `"`)
			if err != nil {
				return "", false
			}
			return unq, true
		}
	}
	return "", false
}

// checkWireStruct enforces explicit, unique json tags on one marked
// struct.
func checkWireStruct(pass *Pass, m *wireStruct) {
	seen := make(map[string]string) // json name -> field name
	for _, field := range m.st.Fields.List {
		if len(field.Names) == 0 {
			// Embedded field: encoding/json flattens it; its own fields
			// are covered when (and only when) its type is marked too.
			continue
		}
		exported := false
		for _, name := range field.Names {
			if name.IsExported() {
				exported = true
			}
		}
		if !exported {
			continue
		}
		name, hasJSON := jsonTagName(field.Tag)
		if !hasJSON {
			for _, fn := range field.Names {
				if !fn.IsExported() {
					continue
				}
				pass.Reportf(fn.Pos(),
					"wire struct %s: exported field %s has no explicit json tag; encoding/json falls back to the field name, so a rename silently changes the wire format",
					m.spec.Name.Name, fn.Name)
			}
			continue
		}
		if name == "" {
			pass.Reportf(field.Names[0].Pos(),
				"wire struct %s: field %s has a json tag with an empty name; name it explicitly",
				m.spec.Name.Name, field.Names[0].Name)
			continue
		}
		if name == "-" {
			continue
		}
		if prev, dup := seen[name]; dup {
			pass.Reportf(field.Names[0].Pos(),
				"wire struct %s: json tag %q on field %s duplicates field %s; encoding/json drops both",
				m.spec.Name.Name, name, field.Names[0].Name, prev)
			continue
		}
		seen[name] = field.Names[0].Name
	}
}

// A WireSchema is the locked shape of one //accu:wire struct, as
// serialized into the wire-schema lockfile.
type WireSchema struct {
	Package string      `json:"package"`
	Name    string      `json:"name"`
	Fields  []WireField `json:"fields"`
}

// A WireField is one field of a wire struct: declared name, wire name
// (empty for embedded or json:"-" fields) and declared type.
type WireField struct {
	Name string `json:"name"`
	JSON string `json:"json"`
	Type string `json:"type"`
}

// CollectWireSchemas extracts the //accu:wire schemas from one parsed
// package, sorted by struct name — the driver aggregates these across
// packages into the lockfile.
func CollectWireSchemas(importPath string, files []*ast.File) []WireSchema {
	var out []WireSchema
	for _, m := range markedWireStructs(files) {
		ws := WireSchema{Package: importPath, Name: m.spec.Name.Name}
		for _, field := range m.st.Fields.List {
			typ := types.ExprString(field.Type)
			if len(field.Names) == 0 {
				ws.Fields = append(ws.Fields, WireField{Name: typ, JSON: "", Type: typ})
				continue
			}
			jsonName, hasJSON := jsonTagName(field.Tag)
			for _, fn := range field.Names {
				wf := WireField{Name: fn.Name, Type: typ}
				switch {
				case !fn.IsExported():
					continue
				case !hasJSON:
					wf.JSON = fn.Name // encoding/json fallback
				case jsonName == "-":
					wf.JSON = ""
				default:
					wf.JSON = jsonName
				}
				ws.Fields = append(ws.Fields, wf)
			}
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
