package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// The wire-schema lockfile is wiretag's second line of defense: the
// analyzer catches missing/duplicate json tags at the declaration, the
// lockfile catches everything the type checker cannot — a field rename,
// a reorder, a type change, a struct dropped from the wire — by turning
// the aggregate schema of every //accu:wire struct into a committed
// artifact. `accuvet -wire-lock` diffs the tree against it; any drift is
// a finding until `-write-wire-lock` re-snapshots it under review.

const wireLockVersion = 1

// WireLock is the committed snapshot of all wire-struct schemas.
type WireLock struct {
	Version int          `json:"version"`
	Schemas []WireSchema `json:"schemas"`
}

// NewWireLock sorts schemas into canonical order (package, then name)
// and wraps them in the current lockfile version.
func NewWireLock(schemas []WireSchema) *WireLock {
	sorted := append([]WireSchema(nil), schemas...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Package != sorted[j].Package {
			return sorted[i].Package < sorted[j].Package
		}
		return sorted[i].Name < sorted[j].Name
	})
	return &WireLock{Version: wireLockVersion, Schemas: sorted}
}

// LoadWireLock reads a lockfile. A missing lockfile is an error: -wire-lock without a committed snapshot would vacuously
// pass, which is exactly the silent drift the check exists to prevent.
func LoadWireLock(path string) (*WireLock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l WireLock
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("wire lock %s: %w", path, err)
	}
	if l.Version != wireLockVersion {
		return nil, fmt.Errorf("wire lock %s: unsupported version %d (want %d)", path, l.Version, wireLockVersion)
	}
	return &l, nil
}

// Write renders the lockfile as stable, indented JSON for committing.
func (l *WireLock) Write(w io.Writer) error {
	if l.Schemas == nil {
		l.Schemas = []WireSchema{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(l)
}

// Diff compares the committed lock (l) against the schemas of the
// current tree and returns one human-readable line per drift. Empty
// means the wire format is unchanged.
func (l *WireLock) Diff(current []WireSchema) []string {
	cur := NewWireLock(current)
	old := make(map[string]WireSchema, len(l.Schemas))
	for _, s := range l.Schemas {
		old[s.Package+"."+s.Name] = s
	}
	seen := make(map[string]bool, len(cur.Schemas))
	var drift []string
	for _, s := range cur.Schemas {
		key := s.Package + "." + s.Name
		seen[key] = true
		o, ok := old[key]
		if !ok {
			drift = append(drift, fmt.Sprintf("wire struct %s is new; commit it with -write-wire-lock", key))
			continue
		}
		drift = append(drift, diffWireStruct(key, o, s)...)
	}
	for _, s := range l.Schemas {
		key := s.Package + "." + s.Name
		if !seen[key] {
			drift = append(drift, fmt.Sprintf("wire struct %s was removed or lost its //accu:wire marker; old decoders still expect it", key))
		}
	}
	return drift
}

// diffWireStruct reports field-level drift, matching fields by Go name:
// a removed or new field, a changed wire name or type, and one line when
// the fields both versions share changed order. Unkeyed literals are
// banned by the analyzer, but journal replay and mixed-version clusters
// still see reordering as a semantic change worth a review, so it is
// reported rather than normalized away.
func diffWireStruct(key string, old, cur WireSchema) []string {
	byName := func(fields []WireField) map[string]WireField {
		m := make(map[string]WireField, len(fields))
		for _, f := range fields {
			m[f.Name] = f
		}
		return m
	}
	oldByName, curByName := byName(old.Fields), byName(cur.Fields)
	var drift, oldOrder, curOrder []string
	for _, o := range old.Fields {
		c, ok := curByName[o.Name]
		switch {
		case !ok:
			drift = append(drift, fmt.Sprintf("%s: field %s(json:%q) was removed; old payloads carrying it now silently drop data", key, o.Name, o.JSON))
			continue
		case o.JSON != c.JSON:
			drift = append(drift, fmt.Sprintf("%s.%s: wire name changed %q -> %q; old payloads no longer decode into it", key, c.Name, o.JSON, c.JSON))
		}
		if o.Type != c.Type {
			drift = append(drift, fmt.Sprintf("%s.%s: type changed %s -> %s", key, c.Name, o.Type, c.Type))
		}
		oldOrder = append(oldOrder, o.Name)
	}
	for _, c := range cur.Fields {
		if _, ok := oldByName[c.Name]; !ok {
			drift = append(drift, fmt.Sprintf("%s: field %s(json:%q) is new; commit it with -write-wire-lock", key, c.Name, c.JSON))
			continue
		}
		curOrder = append(curOrder, c.Name)
	}
	if !slices.Equal(oldOrder, curOrder) {
		drift = append(drift, fmt.Sprintf("%s: fields reordered %v -> %v", key, oldOrder, curOrder))
	}
	return drift
}
