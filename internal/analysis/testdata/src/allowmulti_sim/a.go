// Fixture for multi-name //accu:allow directives: one directive listing
// several analyzers suppresses each of them on the covered line, and
// only those named. A name outside the suite is itself a finding.
package sim

import (
	"context"
	"sync"
)

var mu sync.Mutex

// suppressedBoth violates lockbalance (Lock never released) and
// ctxcancel (cancel discarded) on one line; a single directive naming
// both analyzers silences both.
func suppressedBoth(parent context.Context) context.Context {
	//accu:allow lockbalance, ctxcancel -- fixture: one directive, two analyzer names
	ctx, _ := context.WithCancel(parent); mu.Lock()
	return ctx
}

// partialDirective names only lockbalance, so ctxcancel still fires on
// the same line.
func partialDirective(parent context.Context) context.Context {
	//accu:allow lockbalance -- fixture: directive covers one analyzer only
	ctx, _ := context.WithCancel(parent); mu.Lock() // want `cancel func of context\.WithCancel is discarded`
	return ctx
}

// staleDirective names lockedio, which is not in the suite: the
// directive is flagged where it stands, and the known name listed with
// it still suppresses its finding.
func staleDirective() {
	//accu:allow lockedio, lockbalance -- fixture: one stale name, one live // want `//accu:allow names "lockedio", which is not an accuvet analyzer`
	mu.Lock()
}
