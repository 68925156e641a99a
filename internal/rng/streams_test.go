package rng_test

import (
	"context"
	"sync"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
)

// TestNoStreamDrawnTwicePerRun is the stream-reuse trap: within one
// sim.Run, no seed value may reach PCG (or Rand, which calls it) twice.
// Every draw in a grid — a network's generation and set-up, a cell's
// realization, a randomized policy — must come from its own split, or
// two cells (or two networks) silently share randomness and the
// Monte-Carlo sample shrinks without any digest noticing. The property
// is per Run: paired designs reuse a protocol seed across separate Run
// calls on purpose.
//
// The number of distinct seeds is pinned too, so a draw that bypasses
// the hook fails here: per network one for generation and one for
// set-up, and per cell one for the realization and one for the Random
// policy's order (the roster's one randomized policy).
func TestNoStreamDrawnTwicePerRun(t *testing.T) {
	var (
		mu    sync.Mutex
		drawn = map[rng.Seed]int{}
	)
	defer rng.SetOnRand(func(s rng.Seed) {
		mu.Lock()
		drawn[s]++
		mu.Unlock()
	})()

	factories, err := sim.DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	setup := osn.DefaultSetup()
	setup.NumCautious = 3
	for _, name := range gen.PresetNames() {
		preset, err := gen.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := preset.Generator(0.005)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, 4} {
			for _, workers := range []int{1, 4} {
				clear(drawn)
				p := sim.Protocol{
					Gen: g, Setup: setup, Networks: 3, Runs: 3, K: 10,
					BatchSize: batch, Seed: rng.NewSeed(11, 0), Workers: workers,
				}
				if err := sim.Run(context.Background(), p, factories, func(sim.Record) {}); err != nil {
					t.Fatalf("%s batch %d workers %d: %v", name, batch, workers, err)
				}
				if want := 2*p.Networks + 2*p.Networks*p.Runs; len(drawn) != want {
					t.Errorf("%s batch %d workers %d: %d distinct seeds reached PCG, want %d "+
						"(generation and set-up per network, realization and Random's order per cell)",
						name, batch, workers, len(drawn), want)
				}
				for s, n := range drawn {
					if n > 1 {
						t.Errorf("%s batch %d workers %d: seed %v reached PCG %d times in one Run", name, batch, workers, s, n)
					}
				}
			}
		}
	}
}
