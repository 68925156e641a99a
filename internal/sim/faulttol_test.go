package sim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
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

// policySeed reproduces the engine's attempt-0 seed derivation for
// factory fi of cell (i, j), so tests can pre-compute exactly which New
// calls belong to which cells.
func policySeed(p Protocol, i, j, fi int) rng.Seed {
	return p.Seed.SplitN("network", i).SplitN("run", j).SplitN("policy", fi)
}

// seededFaultFactory fails construction for the given policy seeds and
// stalls construction for the given duration on stall seeds; otherwise it
// yields a MaxDegree policy.
func seededFaultFactory(name string, fail map[rng.Seed]bool, stall map[rng.Seed]bool, stallFor time.Duration) PolicyFactory {
	return PolicyFactory{Name: name, New: func(s rng.Seed) (core.Policy, error) {
		if stall[s] {
			time.Sleep(stallFor)
		}
		if fail[s] {
			return nil, errBoom
		}
		return nonReusable{core.NewMaxDegree()}, nil
	}}
}

func TestRunContinueOnErrorCollectsSurvivors(t *testing.T) {
	p := testProtocol()
	p.Networks = 3
	p.Runs = 2
	failCells := []CellKey{{Network: 0, Run: 1}, {Network: 2, Run: 0}}
	fail := map[rng.Seed]bool{}
	for _, c := range failCells {
		fail[policySeed(p, c.Network, c.Run, 0)] = true
	}
	clean := seededFaultFactory("victim", nil, nil, 0)
	var want []Record
	if err := Run(context.Background(), p, []PolicyFactory{clean}, func(r Record) { want = append(want, r) }); err != nil {
		t.Fatal(err)
	}
	survivors := want[:0]
	for _, r := range want {
		failed := false
		for _, c := range failCells {
			if r.Network == c.Network && r.Run == c.Run {
				failed = true
			}
		}
		if !failed {
			survivors = append(survivors, r)
		}
	}

	p.ContinueOnError = true
	reg := obs.New()
	p.Metrics = reg
	faulty := seededFaultFactory("victim", fail, nil, 0)
	var got []Record
	err := Run(context.Background(), p, []PolicyFactory{faulty}, func(r Record) { got = append(got, r) })
	var sum *FailureSummary
	if !errors.As(err, &sum) {
		t.Fatalf("err = %v, want *FailureSummary", err)
	}
	if len(sum.Failures) != len(failCells) || sum.Cells != p.Networks*p.Runs {
		t.Fatalf("summary = %d failures of %d cells, want %d of %d",
			len(sum.Failures), sum.Cells, len(failCells), p.Networks*p.Runs)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("summary does not unwrap to the injected error: %v", err)
	}
	for _, ce := range sum.Failures {
		if ce.Policy != "victim" {
			t.Errorf("cell (%d,%d): Policy = %q, want victim", ce.Network, ce.Run, ce.Policy)
		}
	}
	// Every non-faulted cell's record must match the clean run's exactly.
	if !bytes.Equal(marshalRecords(t, got), marshalRecords(t, survivors)) {
		t.Error("surviving records differ from the uninterrupted run")
	}
	if v := reg.Counter("sim.cell_failures").Value(); v != int64(len(failCells)) {
		t.Errorf("sim.cell_failures = %d, want %d", v, len(failCells))
	}
	if v := reg.Counter("sim.cells").Value(); v != int64(len(got)) {
		t.Errorf("sim.cells = %d, want collected count %d", v, len(got))
	}
}

func TestRunFailsFastWithoutContinueOnError(t *testing.T) {
	p := testProtocol()
	fail := map[rng.Seed]bool{policySeed(p, 1, 0, 0): true}
	err := Run(context.Background(), p, []PolicyFactory{seededFaultFactory("victim", fail, nil, 0)}, func(Record) {})
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

func TestRunFailureBudget(t *testing.T) {
	p := testProtocol()
	p.Workers = 1 // deterministic failure order for the budget check
	p.ContinueOnError = true
	p.MaxFailures = 1
	fail := map[rng.Seed]bool{
		policySeed(p, 0, 0, 0): true,
		policySeed(p, 1, 1, 0): true,
	}
	err := Run(context.Background(), p, []PolicyFactory{seededFaultFactory("victim", fail, nil, 0)}, func(Record) {})
	if err == nil || !strings.Contains(err.Error(), "failure budget exhausted") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	var sum *FailureSummary
	if errors.As(err, &sum) {
		t.Errorf("budget exhaustion reported as a benign FailureSummary: %v", err)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("budget error does not unwrap to the injected error: %v", err)
	}
}

func TestRunRetriesRecoverTransientFaults(t *testing.T) {
	p := testProtocol()
	p.Retries = 1
	// Fault only the attempt-0 policy seeds: the retry re-derives the cell
	// seed under a fresh "retry" branch, so attempt 1 succeeds.
	fail := map[rng.Seed]bool{
		policySeed(p, 0, 1, 0): true,
		policySeed(p, 2, 0, 0): true,
	}
	reg := obs.New()
	p.Metrics = reg
	run := func() ([]byte, int) {
		var recs []Record
		if err := Run(context.Background(), p, []PolicyFactory{seededFaultFactory("victim", fail, nil, 0)}, func(r Record) {
			recs = append(recs, r)
		}); err != nil {
			t.Fatal(err)
		}
		return marshalRecords(t, recs), len(recs)
	}
	first, collected := run()
	if want := p.Networks * p.Runs; collected != want {
		t.Errorf("collected %d records, want the full grid of %d", collected, want)
	}
	if v := reg.Counter("sim.cell_retries").Value(); v != int64(len(fail)) {
		t.Errorf("sim.cell_retries = %d, want %d", v, len(fail))
	}
	if v := reg.Counter("sim.cell_failures").Value(); v != 0 {
		t.Errorf("sim.cell_failures = %d, want 0 (all retries recovered)", v)
	}
	// Retried seed derivation is deterministic: same faults, same records.
	if second, _ := run(); !bytes.Equal(first, second) {
		t.Error("retried grid not reproducible across runs")
	}
}

// TestRunCellTimeout also pins the timed-attempt handoff: the abandoned
// attempt goroutine must still be able to hand off its outcome and exit
// once its stall ends, even though nobody receives it any more.
func TestRunCellTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	p := testProtocol()
	p.ContinueOnError = true
	p.CellTimeout = 25 * time.Millisecond
	stall := map[rng.Seed]bool{policySeed(p, 1, 1, 0): true}
	reg := obs.New()
	p.Metrics = reg
	var got []Record
	err := Run(context.Background(), p, []PolicyFactory{seededFaultFactory("victim", nil, stall, 300*time.Millisecond)}, func(r Record) {
		got = append(got, r)
	})
	var sum *FailureSummary
	if !errors.As(err, &sum) {
		t.Fatalf("err = %v, want *FailureSummary", err)
	}
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("summary does not unwrap to ErrCellTimeout: %v", err)
	}
	if len(sum.Failures) != 1 || sum.Failures[0].Network != 1 || sum.Failures[0].Run != 1 {
		t.Fatalf("failures = %+v, want exactly cell (1,1)", sum.Failures)
	}
	if want := p.Networks*p.Runs - 1; len(got) != want {
		t.Errorf("collected %d records, want %d", len(got), want)
	}
	if v := reg.Counter("sim.cell_timeouts").Value(); v < 1 {
		t.Errorf("sim.cell_timeouts = %d, want >= 1", v)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by the abandoned attempt: %d before, %d after", before, after)
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
		if e.nets[i].inst.Load() != nil {
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
		if e.nets[i].inst.Load() != nil {
			t.Errorf("network %d instance still pinned after full run", i)
		}
		if rem := e.nets[i].remaining.Load(); rem != 0 {
			t.Errorf("network %d: %d releases unaccounted", i, rem)
		}
	}
}

// TestRunContinueOnErrorSurvivesCancellationAccounting runs a faulted,
// continue-on-error grid under -race with several workers to shake out
// races between the failure ledger, delivery and release paths.
func TestRunContinueOnErrorConcurrent(t *testing.T) {
	p := testProtocol()
	p.Networks = 4
	p.Runs = 4
	p.Workers = 8
	p.ContinueOnError = true
	fail := map[rng.Seed]bool{}
	for _, c := range []CellKey{{0, 0}, {1, 3}, {2, 2}, {3, 1}} {
		fail[policySeed(p, c.Network, c.Run, 0)] = true
	}
	reg := obs.New()
	p.Metrics = reg
	var n atomic.Int64
	err := Run(context.Background(), p, []PolicyFactory{seededFaultFactory("victim", fail, nil, 0)}, func(Record) { n.Add(1) })
	var sum *FailureSummary
	if !errors.As(err, &sum) {
		t.Fatalf("err = %v, want *FailureSummary", err)
	}
	if len(sum.Failures) != len(fail) {
		t.Errorf("failures = %d, want %d", len(sum.Failures), len(fail))
	}
	if want := int64(p.Networks*p.Runs - len(fail)); n.Load() != want {
		t.Errorf("collected %d records, want %d", n.Load(), want)
	}
	if v := reg.Counter("sim.cells").Value(); v != n.Load() {
		t.Errorf("sim.cells = %d, want %d", v, n.Load())
	}
}
