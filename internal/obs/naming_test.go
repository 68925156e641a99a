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

// TestRegistryNames is the runtime counterpart of the accuvet metricname
// analyzer: it drives a real simulation into a live registry — engine,
// policy and instance instruments included — then walks the snapshot and
// asserts every registered name (including any built dynamically) obeys
// obs.NamePattern.
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
	factories, err := sim.DefaultFactories(core.DefaultWeights(), core.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(context.Background(), p, factories, func(sim.Record) {}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	if len(names) == 0 {
		t.Fatal("instrumented run registered no metrics")
	}
	for _, name := range names {
		if !obs.ValidName(name) {
			t.Errorf("live registry holds metric %q, which violates %s", name, obs.NamePattern)
		}
	}
}
