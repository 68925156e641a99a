package analysis

import (
	"slices"
	"strings"
	"testing"
)

// TestWireLockDiffMatchesByName pins that the lockfile diff names the
// fields that actually changed: deleting a field from the middle of a
// wire struct reports that field, not every field after it.
func TestWireLockDiffMatchesByName(t *testing.T) {
	schema := func(fields ...WireField) []WireSchema {
		return []WireSchema{{Package: "p", Name: "S", Fields: fields}}
	}
	a := WireField{Name: "A", JSON: "a", Type: "int"}
	b := WireField{Name: "B", JSON: "b", Type: "string"}
	c := WireField{Name: "C", JSON: "c", Type: "bool"}
	cases := []struct {
		name string
		lock []WireSchema
		tree []WireSchema
		want []string
	}{
		{"unchanged", schema(a, b, c), schema(a, b, c), nil},
		{"middle removed", schema(a, b, c), schema(a, c),
			[]string{`p.S: field B(json:"b") was removed; old payloads carrying it now silently drop data`}},
		{"middle added", schema(a, c), schema(a, b, c),
			[]string{`p.S: field B(json:"b") is new; commit it with -write-wire-lock`}},
		{"renamed and retyped", schema(a, b, c),
			schema(a, WireField{Name: "B", JSON: "bee", Type: "[]byte"}, c),
			[]string{
				`p.S.B: wire name changed "b" -> "bee"; old payloads no longer decode into it`,
				`p.S.B: type changed string -> []byte`,
			}},
		{"reordered", schema(a, b, c), schema(c, a, b),
			[]string{`p.S: fields reordered [A B C] -> [C A B]`}},
	}
	for _, tc := range cases {
		got := NewWireLock(tc.lock).Diff(tc.tree)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: drift\n  %s\nwant\n  %s", tc.name, strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
		}
	}
}
