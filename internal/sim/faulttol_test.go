package sim

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/rng"
)

var errBoom = errors.New("boom")

// nonReusable hides a policy's Reusable implementation so the scheduler
// constructs a fresh instance per cell — the factory's New (and any
// fault decision in it) then runs for every cell, not once per worker.
type nonReusable struct{ core.Policy }

// policySeed reproduces the engine's seed derivation for factory fi of
// cell (i, j), so tests can pre-compute exactly which New calls belong
// to which cells.
func policySeed(p Protocol, i, j, fi int) rng.Seed {
	return p.Seed.SplitN("network", i).SplitN("run", j).SplitN("policy", fi)
}

// seededFaultFactory fails construction for the given policy seeds;
// otherwise it yields a MaxDegree policy.
func seededFaultFactory(name string, fail map[rng.Seed]bool) PolicyFactory {
	return PolicyFactory{Name: name, New: func(s rng.Seed) (core.Policy, error) {
		if fail[s] {
			return nil, errBoom
		}
		return nonReusable{core.NewMaxDegree()}, nil
	}}
}

func TestRunAbortsAtFirstFailedCell(t *testing.T) {
	p := testProtocol()
	fail := map[rng.Seed]bool{policySeed(p, 1, 0, 0): true}
	err := Run(context.Background(), p, []PolicyFactory{seededFaultFactory("victim", fail)}, func(Record) {})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Network != 1 || ce.Run != 0 || ce.Policy != "victim" {
		t.Errorf("cell error = %+v, want network 1 run 0 policy victim", ce)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("cell error does not unwrap to the injected error: %v", err)
	}
}

// TestRunCancellationUnpinsInstances is the -race regression test for
// the cell-lifecycle fixes: cancelling mid-grid must leave no network
// instance pinned in a slot, no goroutine behind, and the sim.cells
// counter equal to the records actually collected.
func TestRunCancellationUnpinsInstances(t *testing.T) {
	before := runtime.NumGoroutine()
	p := testProtocol()
	p.Networks = 2
	p.Runs = 10
	p.Workers = 4
	reg := obs.New()
	p.Metrics = reg
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(p, factories)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	err = e.run(ctx, func(Record) {
		if n.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range e.nets {
		if e.nets[i].inst != nil {
			t.Errorf("network %d instance still pinned after cancelled run", i)
		}
	}
	if v := reg.Counter("sim.cells").Value(); v != n.Load() {
		t.Errorf("sim.cells = %d, want collected count %d", v, n.Load())
	}
	// The pool must have fully drained: allow the runtime a moment to
	// retire worker goroutines, then compare against the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestRunCompletionUnpinsInstances pins the release-accounting fix: a
// fully successful grid ends with every network slot unpinned, because
// runCell now releases on every path instead of only the happy one.
func TestRunCompletionUnpinsInstances(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(p, factories)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.run(context.Background(), func(Record) {}); err != nil {
		t.Fatal(err)
	}
	for i := range e.nets {
		if e.nets[i].inst != nil {
			t.Errorf("network %d instance still pinned after full run", i)
		}
		if rem := e.nets[i].remaining.Load(); rem != 0 {
			t.Errorf("network %d: %d releases unaccounted", i, rem)
		}
	}
}

// TestRunAbortConcurrent aborts a grid with several failing cells under
// -race with more workers than fit one network, to shake out races
// between the abort, delivery and release paths: the error names one of
// the failing cells, no failing cell delivers a record, every slot ends
// unpinned and sim.cells equals the records collected.
func TestRunAbortConcurrent(t *testing.T) {
	p := testProtocol()
	p.Networks = 4
	p.Runs = 4
	p.Workers = 8
	failCells := map[CellKey]bool{{0, 2}: true, {1, 3}: true, {2, 2}: true, {3, 1}: true}
	fail := map[rng.Seed]bool{}
	for c := range failCells {
		fail[policySeed(p, c.Network, c.Run, 0)] = true
	}
	reg := obs.New()
	p.Metrics = reg
	e, err := newEngine(p, []PolicyFactory{seededFaultFactory("victim", fail)})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	err = e.run(context.Background(), func(r Record) {
		n.Add(1)
		if failCells[CellKey{Network: r.Network, Run: r.Run}] {
			t.Errorf("failing cell (%d,%d) delivered a record", r.Network, r.Run)
		}
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if !failCells[CellKey{Network: ce.Network, Run: ce.Run}] {
		t.Errorf("cell error names (%d,%d), not one of the failing cells", ce.Network, ce.Run)
	}
	for i := range e.nets {
		if e.nets[i].inst != nil {
			t.Errorf("network %d instance still pinned after aborted run", i)
		}
	}
	if v := reg.Counter("sim.cells").Value(); v != n.Load() {
		t.Errorf("sim.cells = %d, want %d", v, n.Load())
	}
}
