package fault_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/sim/fault"
)

// testProtocol is a small grid sized so every fault-rate expectation has
// room to fire without slowing the suite.
func testProtocol() sim.Protocol {
	s := osn.DefaultSetup()
	s.NumCautious = 5
	return sim.Protocol{
		Gen:      gen.ErdosRenyi{N: 200, M: 2000},
		Setup:    s,
		Networks: 4,
		Runs:     4,
		K:        10,
		Seed:     rng.NewSeed(7, 11),
		Workers:  4,
	}
}

func abmFactory(t *testing.T) sim.PolicyFactory {
	t.Helper()
	f, err := sim.ABMFactory(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAbortResumeOracle pins the engine's one failure rule with every
// wrapper at once — faulted generator, builder and policy factory — over
// several seeds at one and four workers: the faulted grid aborts with a
// *CellError that unwraps to ErrInjected; every record it delivered or
// journaled is bit-identical to the same cell of an unfaulted run; and
// resuming from its journal with the faults removed reaches the
// unfaulted digest.
func TestAbortResumeOracle(t *testing.T) {
	factory := abmFactory(t)
	journaled := 0
	for s := uint64(1); s <= 4; s++ {
		clean := testProtocol()
		clean.Seed = rng.NewSeed(s, 11)
		want := map[sim.CellKey][]byte{}
		wantDigest := sim.NewRecordDigest()
		if err := sim.Run(context.Background(), clean, []sim.PolicyFactory{factory}, func(r sim.Record) {
			want[sim.CellKey{Network: r.Network, Run: r.Run}] = marshal(t, r)
			wantDigest.Collect(r)
		}); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("seed %d, %d workers", s, workers)
			sameAsClean := func(what string, r sim.Record) {
				if !bytes.Equal(marshal(t, r), want[sim.CellKey{Network: r.Network, Run: r.Run}]) {
					t.Errorf("%s: %s record of cell (%d,%d) differs from the unfaulted run", name, what, r.Network, r.Run)
				}
			}
			p := clean
			p.Workers = workers
			path := filepath.Join(t.TempDir(), "cells.jsonl")
			journal, err := sim.OpenCellJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			rates := fault.Rates{Fail: 0.2}
			faulted := p
			faulted.Gen = fault.Generator{Inner: p.Gen, Rates: rates}
			faulted.Setup = fault.Builder{Inner: p.Setup, Rates: rates}
			faulted.Checkpoint = journal
			err = sim.Run(context.Background(), faulted, []sim.PolicyFactory{fault.Factory(factory, rates)}, func(r sim.Record) {
				sameAsClean("delivered", r)
			})
			if cerr := journal.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			var ce *sim.CellError
			if !errors.As(err, &ce) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: err = %v, want a *sim.CellError wrapping ErrInjected", name, err)
			}

			if journal, err = sim.OpenCellJournal(path, true); err != nil {
				t.Fatal(err)
			}
			journaled += journal.Cells()
			got := sim.NewRecordDigest()
			journal.Replay(func(r sim.Record) {
				sameAsClean("journaled", r)
				got.Collect(r)
			})
			p.Checkpoint = journal
			err = sim.Run(context.Background(), p, []sim.PolicyFactory{factory}, got.Collect)
			if cerr := journal.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if err != nil {
				t.Fatalf("%s: resume without faults: %v", name, err)
			}
			if got.Sum() != wantDigest.Sum() {
				t.Errorf("%s: resumed digest %s, want the unfaulted %s", name, got.Sum(), wantDigest.Sum())
			}
		}
	}
	if journaled == 0 {
		t.Fatal("no faulted run journaled a cell before aborting; seed choice starved the test")
	}
}

func marshal(t *testing.T, r sim.Record) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// skipSet is an in-memory Checkpointer whose done set the test can also
// extend with failed cells, so the next run skips them.
type skipSet struct {
	mu   sync.Mutex
	done map[sim.CellKey]bool
}

func (s *skipSet) Done(k sim.CellKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done[k]
}

func (s *skipSet) Commit(k sim.CellKey, _ []sim.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[k] = true
	return nil
}

// TestFaultDeterminism drives the same faulted grid to the end by abort
// and resume — each abort's failed cell is marked done so the next run
// skips it — and requires the identical failure set at one and at four
// workers: fault injection must be as reproducible as the engine it
// exercises.
func TestFaultDeterminism(t *testing.T) {
	failures := func(workers int) map[sim.CellKey]bool {
		p := testProtocol()
		p.Workers = workers
		ck := &skipSet{done: map[sim.CellKey]bool{}}
		p.Checkpoint = ck
		factory := fault.Factory(abmFactory(t), fault.Rates{Fail: 0.25})
		failed := map[sim.CellKey]bool{}
		for range p.Networks*p.Runs + 1 {
			err := sim.Run(context.Background(), p, []sim.PolicyFactory{factory}, func(sim.Record) {})
			if err == nil {
				return failed
			}
			var ce *sim.CellError
			if !errors.As(err, &ce) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("workers=%d: err = %v, want an injected *sim.CellError", workers, err)
			}
			k := sim.CellKey{Network: ce.Network, Run: ce.Run}
			failed[k] = true
			ck.Commit(k, nil)
		}
		t.Fatalf("workers=%d: grid never completed", workers)
		return nil
	}
	a, b := failures(1), failures(4)
	if len(a) == 0 {
		t.Fatal("no faults injected at Fail=0.25; seed choice starved the test")
	}
	if len(a) != len(b) {
		t.Fatalf("failure sets differ in size: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("cell %+v failed in one run but not the other", k)
		}
	}
}

// TestNonFaultedCellsUntouched pins the pass-through contract: wrapping
// with zero rates changes nothing — the wrapped components consume their
// original seed streams, so records are bit-identical to an unwrapped
// run.
func TestNonFaultedCellsUntouched(t *testing.T) {
	collect := func(wrap bool) map[sim.CellKey]float64 {
		p := testProtocol()
		factory := abmFactory(t)
		if wrap {
			p.Gen = fault.Generator{Inner: p.Gen, Rates: fault.Rates{}}
			p.Setup = fault.Builder{Inner: p.Setup, Rates: fault.Rates{}}
			factory = fault.Factory(factory, fault.Rates{})
		}
		got := map[sim.CellKey]float64{}
		if err := sim.Run(context.Background(), p, []sim.PolicyFactory{factory}, func(r sim.Record) {
			got[sim.CellKey{Network: r.Network, Run: r.Run}] = r.Result.Benefit
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain, wrapped := collect(false), collect(true)
	if len(plain) != len(wrapped) {
		t.Fatalf("cell counts differ: %d vs %d", len(plain), len(wrapped))
	}
	for k, v := range plain {
		if wrapped[k] != v {
			t.Errorf("cell %+v: benefit %v plain vs %v wrapped", k, v, wrapped[k])
		}
	}
}
