package obs_test

import (
	"context"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
)

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"abm.heap_pops":             true,
		"sim.worker_busy_ns":        true,
		"osn.sample_realization_ns": true,
		"a.b.c":                     true,
		"nodots":                    false,
		"CamelCase.x":               false,
		"sim.cell-ns":               false,
		".leading":                  false,
		"trailing.":                 false,
		"sim..double":               false,
		"":                          false,
		"9starts.with_digit":        false,
	} {
		if got := obs.ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestRegistryNames drives a real simulation into a live registry —
// engine, policy and instance instruments included — then walks the
// snapshot and asserts every registered name (including any built
// dynamically) obeys obs.NamePattern and is registered under one kind
// only: a name that is both a counter and a gauge reads as two different
// series in every dump.
func TestRegistryNames(t *testing.T) {
	reg := obs.New()
	setup := osn.DefaultSetup()
	setup.NumCautious = 5
	p := sim.Protocol{
		Gen:      gen.ErdosRenyi{N: 150, M: 1200},
		Setup:    setup,
		Networks: 2,
		Runs:     2,
		K:        10,
		Seed:     rng.NewSeed(7, 11),
		Workers:  2,
		Metrics:  reg,
	}
	factories, err := sim.DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(context.Background(), p, factories, func(sim.Record) {}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	kinds := make(map[string][]string) // name → kinds it is registered as
	for _, c := range snap.Counters {
		kinds[c.Name] = append(kinds[c.Name], "counter")
	}
	for _, g := range snap.Gauges {
		kinds[g.Name] = append(kinds[g.Name], "gauge")
	}
	for _, h := range snap.Histograms {
		kinds[h.Name] = append(kinds[h.Name], "histogram")
	}
	if len(kinds) == 0 {
		t.Fatal("instrumented run registered no metrics")
	}
	for name, ks := range kinds {
		if !obs.ValidName(name) {
			t.Errorf("live registry holds metric %q, which violates %s", name, obs.NamePattern)
		}
		if len(ks) > 1 {
			t.Errorf("live registry holds metric %q as %v; a name must have one kind", name, ks)
		}
	}
}
