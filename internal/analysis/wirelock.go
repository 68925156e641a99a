package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// diffWireStruct reports field-level drift. Order matters: unkeyed
// literals are banned by the analyzer, but journal replay and mixed-
// version clusters still see reordering as a semantic change worth a
// review, so it is reported rather than normalized away.
func diffWireStruct(key string, old, cur WireSchema) []string {
	var drift []string
	n := len(old.Fields)
	if len(cur.Fields) < n {
		n = len(cur.Fields)
	}
	for i := 0; i < n; i++ {
		o, c := old.Fields[i], cur.Fields[i]
		switch {
		case o == c:
		case o.JSON != c.JSON && o.Name == c.Name:
			drift = append(drift, fmt.Sprintf("%s.%s: wire name changed %q -> %q; old payloads no longer decode into it", key, c.Name, o.JSON, c.JSON))
		case o.Type != c.Type && o.Name == c.Name && o.JSON == c.JSON:
			drift = append(drift, fmt.Sprintf("%s.%s: type changed %s -> %s", key, c.Name, o.Type, c.Type))
		default:
			drift = append(drift, fmt.Sprintf("%s: field %d changed %s(json:%q %s) -> %s(json:%q %s)", key, i, o.Name, o.JSON, o.Type, c.Name, c.JSON, c.Type))
		}
	}
	for i := n; i < len(old.Fields); i++ {
		o := old.Fields[i]
		drift = append(drift, fmt.Sprintf("%s: field %s(json:%q) was removed; old payloads carrying it now silently drop data", key, o.Name, o.JSON))
	}
	for i := n; i < len(cur.Fields); i++ {
		c := cur.Fields[i]
		drift = append(drift, fmt.Sprintf("%s: field %s(json:%q) is new; commit it with -write-wire-lock", key, c.Name, c.JSON))
	}
	return drift
}
