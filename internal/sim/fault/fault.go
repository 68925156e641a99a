// Package fault provides seeded fault-injection wrappers for the
// Monte-Carlo engine's collaborators: network generators, instance
// builders and policy factories that fail or stall at deterministic,
// seed-derived rates. They exist to exercise the engine's failure rule
// in tests: a failed cell aborts the grid, the checkpoint keeps every
// cell committed before it, and a resumed run completes the grid.
//
// Every injection decision derives from the seed the wrapped call
// receives, split under a "fault" label, so a faulted grid is exactly as
// reproducible as a healthy one: the same protocol seed yields the same
// failures in the same cells at any worker count, and the wrapped
// component still consumes its original seed stream — cells a wrapper
// leaves alone are bit-identical to an unwrapped run.
//
// The package sits outside the deterministic record path (it may read
// the clock to stall), which is why it lives beside — not inside —
// internal/sim.
package fault

import (
	"errors"
	"fmt"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
)

// ErrInjected is the sentinel wrapped by every injected failure; detect
// injected (as opposed to organic) failures with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Rates configures one wrapper's misbehaviour. The zero value injects
// nothing.
type Rates struct {
	// Fail is the probability in [0, 1] that a call fails with an error
	// wrapping ErrInjected.
	Fail float64
	// Stall is the probability in [0, 1] that a call sleeps for StallFor
	// before proceeding (and before failing, if both fire) — transient
	// slowness that perturbs scheduling order without changing any
	// record.
	Stall float64
	// StallFor is the stall duration (default 50ms when Stall fires with
	// a zero StallFor).
	StallFor time.Duration
}

// decide draws the injection decision for one call from seed. The seed
// must already be split under a fault-specific label by the caller so
// the wrapped component's own stream stays untouched.
func (r Rates) decide(seed rng.Seed) (fail, stall bool) {
	rnd := seed.Rand()
	fail = rnd.Float64() < r.Fail
	stall = rnd.Float64() < r.Stall
	return fail, stall
}

// sleep stalls for the configured duration.
func (r Rates) sleep() {
	d := r.StallFor
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	time.Sleep(d)
}

// Generator wraps a gen.Generator with injected faults. The inner
// generator receives the original seed, so non-faulted networks are
// identical to an unwrapped run's.
type Generator struct {
	Inner gen.Generator
	Rates Rates
}

var _ gen.Generator = Generator{}

// Name implements gen.Generator.
func (g Generator) Name() string { return "fault(" + g.Inner.Name() + ")" }

// Generate implements gen.Generator.
func (g Generator) Generate(seed rng.Seed) (*graph.Graph, error) {
	fail, stall := g.Rates.decide(seed.Split("fault.generate"))
	if stall {
		g.Rates.sleep()
	}
	if fail {
		return nil, fmt.Errorf("fault: generate %s: %w", g.Inner.Name(), ErrInjected)
	}
	return g.Inner.Generate(seed)
}

// Builder wraps a sim.Builder (e.g. osn.Setup) with injected faults.
type Builder struct {
	Inner sim.Builder
	Rates Rates
}

var _ sim.Builder = Builder{}

// Build implements sim.Builder.
func (b Builder) Build(g *graph.Graph, seed rng.Seed) (*osn.Instance, error) {
	fail, stall := b.Rates.decide(seed.Split("fault.build"))
	if stall {
		b.Rates.sleep()
	}
	if fail {
		return nil, fmt.Errorf("fault: build instance: %w", ErrInjected)
	}
	return b.Inner.Build(g, seed)
}

// Factory wraps a policy factory so a seeded fraction of cells fail or
// stall when the policy initializes. The decision derives from the
// per-cell factory seed, so the same cells fail on every run of the same
// protocol.
func Factory(f sim.PolicyFactory, r Rates) sim.PolicyFactory {
	return sim.PolicyFactory{
		Name: f.Name,
		New: func(seed rng.Seed) (core.Policy, error) {
			fail, stall := r.decide(seed.Split("fault.policy"))
			pol, err := f.New(seed)
			if err != nil {
				return nil, err
			}
			return &policy{Policy: pol, fail: fail, stall: stall, rates: r}, nil
		},
	}
}

// policy defers its injected fault to Init so the failure surfaces as a
// run error inside the cell, after the realization is sampled — the
// engine path a mid-grid fault actually exercises. It deliberately does
// not implement core.Reusable: caching would freeze one cell's fault
// decision across the whole grid.
type policy struct {
	core.Policy
	fail, stall bool
	rates       Rates
}

// Init implements core.Policy.
func (p *policy) Init(st *osn.State) error {
	if p.stall {
		p.rates.sleep()
	}
	if p.fail {
		return fmt.Errorf("fault: policy %s init: %w", p.Policy.Name(), ErrInjected)
	}
	return p.Policy.Init(st)
}
