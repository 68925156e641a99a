package analysis

// NewSuite returns fresh instances of the five accuvet analyzers, in the
// order they report. Each one has a real in-tree finding or an allowed
// in-tree site (DESIGN.md §8); invariants that go vet, staticcheck, the
// race job or a dynamic test already pin are left to those. All five
// work from syntax and types; errdrop adds a package-local call graph.
// None needs a control-flow graph.
//
// Determinism (AST + object identity):
//
//	maporder      — no order-dependent effects under map iteration
//	seedflow      — one Split per seed consumer
//	scratchescape — per-worker scratch never escapes its worker goroutine
//
// Durability (package-local call graph) and wire format (types):
//
//	errdrop       — no discarded error on a durability-critical call chain
//	wiretag       — //accu:wire structs carry explicit unique json tags,
//	                no unkeyed literals; feeds the wire-schema lockfile
func NewSuite() []*Analyzer {
	return []*Analyzer{
		MapOrder(),
		SeedFlow(),
		ScratchEscape(),
		ErrDrop(),
		WireTag(),
	}
}

// knownAnalyzers is the set of names an //accu:allow directive may use.
var knownAnalyzers = func() map[string]bool {
	known := make(map[string]bool)
	for _, a := range NewSuite() {
		known[a.Name] = true
	}
	return known
}()
