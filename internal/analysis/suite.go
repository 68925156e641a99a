package analysis

// NewSuite returns fresh instances of the fifteen accuvet analyzers, in
// the order they report:
//
// Wave 1 — determinism invariants (AST + object identity):
//
//	detrand       — no clock / global rand / env reads on the record path
//	maporder      — no order-dependent effects under map iteration
//	seedflow      — one Split per seed consumer
//	metricname    — obs metric names match the convention, one kind per name
//
// Wave 2 — concurrency invariants (CFG + forward dataflow):
//
//	lockbalance   — every Lock released on every CFG path; no lock copies
//	atomicmix     — no variable accessed both atomically and plainly
//	ctxcancel     — cancel funcs invoked on every path, never dropped
//	scratchescape — per-worker scratch never escapes its worker goroutine
//	errcmp        — errors.Is for module sentinels, not == (wrapping-safe)
//
// Wave 3 — service-layer invariants (package-local call graph + CFG):
//
//	httpbody      — every *http.Response body closed on all paths, drained
//	respwrite     — response header committed once per path, via helpers
//	ctxflow       — outgoing requests carry a context; poll loops consult it
//	timerleak     — no time.After in loops, no time.Tick at all
//
// Wave 4 — durability and wire-format invariants (call graph + CFG):
//
//	errdrop       — no discarded error on a durability-critical call chain
//	wiretag       — //accu:wire structs carry explicit unique json tags,
//	                no unkeyed literals; feeds the wire-schema lockfile
//
// Instances hold per-run state (metricname's cross-package duplicate
// table), so every checker invocation must call NewSuite rather than
// sharing analyzers globally.
func NewSuite() []*Analyzer {
	return []*Analyzer{
		Detrand(),
		MapOrder(),
		SeedFlow(),
		MetricNames(),
		LockBalance(),
		AtomicMix(),
		CtxCancel(),
		ScratchEscape(),
		ErrCmp(),
		HTTPBody(),
		RespWrite(),
		CtxFlow(),
		TimerLeak(),
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
