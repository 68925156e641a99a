// Package exp defines one reproducible experiment per table and figure of
// the paper's evaluation (§IV): Table I dataset statistics, Fig. 2 benefit
// curves, Fig. 3 marginal-gain breakdown, Fig. 4 weight sweep, Fig. 5
// request-timing fractions, Fig. 6/7 sensitivity heat maps, and a
// Theorem 1 verification on enumerable instances. Each experiment renders
// the same rows/series the paper reports.
package exp

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

// Config scales the experiment protocol. The paper's full protocol is
// Scale=1, Networks=100, Runs=30, K=500, NumCautious=100; the quick
// default shrinks everything proportionally so the suite runs on a
// laptop while preserving the qualitative shapes.
type Config struct {
	// Scale shrinks the preset networks (node count factor in (0, 1]).
	Scale float64
	// Networks and Runs are the Monte-Carlo grid dimensions.
	Networks, Runs int
	// K is the friend-request budget. 0 derives K = max(60, 500·Scale).
	K int
	// NumCautious is the cautious users per network. 0 derives
	// max(10, 100·Scale).
	NumCautious int
	// Datasets are the preset names to run on (nil = paper's four).
	Datasets []string
	// Weights are the ABM potential weights (zero value = paper's 0.5/0.5).
	Weights core.Weights
	// Seed roots all randomness.
	Seed rng.Seed
	// Workers bounds the simulation worker pool (0 = GOMAXPROCS). It is
	// sized against (network, run) cells and clamped to their count.
	Workers int
	// Metrics, when non-nil, collects engine/environment/policy counters
	// across the Monte-Carlo runs of an experiment; each report embeds a
	// snapshot of the cells its experiment simulated (see Run).
	Metrics *obs.Registry
	// OnProgress, when non-nil, is forwarded to every Monte-Carlo run so
	// long experiments can report liveness. Note an experiment may run
	// several protocols (one per dataset or grid cell); Done/Total reset
	// for each.
	OnProgress func(sim.Progress)
	// CheckpointDir, when non-empty, journals each grid's completed cells
	// at CheckpointDir/<grid>.jsonl, so an interrupted experiment resumes
	// without recomputing them. A grid's name is its only key: experiments
	// run together by Run share the journal of a grid they both read.
	CheckpointDir string
	// Resume reopens existing journals in CheckpointDir, replays their
	// cells and computes only what is missing. Without Resume a leftover
	// journal is an error (refusing to silently mix two runs).
	Resume bool
	// grids holds the result of each grid run so far, by grid name (Run).
	grids map[string]*sim.Summary
}

// QuickConfig returns a configuration sized for interactive use
// (seconds-to-minutes per experiment on one core).
func QuickConfig() Config {
	return Config{
		Scale:    0.03,
		Networks: 2,
		Runs:     3,
		Seed:     rng.NewSeed(2019, 1243),
	}
}

// PaperConfig returns the full §IV protocol (hours of compute).
func PaperConfig() Config {
	return Config{
		Scale:    1,
		Networks: 100,
		Runs:     30,
		K:        500,
		Seed:     rng.NewSeed(2019, 1243),
	}
}

// normalize fills derived defaults, validates, names each dataset by its
// preset key, and attaches a grid table unless the config holds one.
func (c Config) normalize() (Config, error) {
	if c.Scale <= 0 || c.Scale > 1 {
		return c, fmt.Errorf("exp: scale %v not in (0, 1]", c.Scale)
	}
	if c.Networks <= 0 || c.Runs <= 0 {
		return c, fmt.Errorf("exp: networks=%d runs=%d must be positive", c.Networks, c.Runs)
	}
	if c.K == 0 {
		c.K = int(math.Max(60, 500*c.Scale))
	}
	if c.K < 0 {
		return c, fmt.Errorf("exp: K = %d", c.K)
	}
	if c.NumCautious == 0 {
		c.NumCautious = int(math.Max(10, 100*c.Scale))
	}
	if c.NumCautious < 0 {
		return c, fmt.Errorf("exp: NumCautious = %d", c.NumCautious)
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"facebook", "slashdot", "twitter", "dblp"}
	}
	c.Datasets = slices.Clone(c.Datasets)
	for i, ds := range c.Datasets {
		p, err := gen.PresetByName(ds)
		if err != nil {
			return c, err
		}
		c.Datasets[i] = p.Key
	}
	if c.Weights == (core.Weights{}) {
		c.Weights = core.DefaultWeights()
	}
	if err := c.Weights.Validate(); err != nil {
		return c, err
	}
	if c.grids == nil {
		c.grids = make(map[string]*sim.Summary)
	}
	return c, nil
}

// setup builds the §IV-A protocol setup for this config.
func (c Config) setup() osn.Setup {
	s := osn.DefaultSetup()
	s.NumCautious = c.NumCautious
	return s
}

// protocol assembles the Monte-Carlo protocol shared by every
// experiment, threading the config's metrics registry and progress
// callback through to the engine. Callers override BatchSize or other
// fields afterwards as needed.
func (c Config) protocol(g gen.Generator, s osn.Setup, seed rng.Seed) sim.Protocol {
	return sim.Protocol{
		Gen:        g,
		Setup:      s,
		Networks:   c.Networks,
		Runs:       c.Runs,
		K:          c.K,
		Seed:       seed,
		Workers:    c.Workers,
		Metrics:    c.Metrics,
		OnProgress: c.OnProgress,
	}
}

// run executes grid name, journaled at CheckpointDir/<name>.jsonl when
// CheckpointDir is set (sim.RunJournaled, logging resumes on stderr).
// Every name is a preset key and numeric literals: a plain file name.
func (c Config) run(ctx context.Context, name string, protocol sim.Protocol, factories []sim.PolicyFactory, collect func(sim.Record)) error {
	path := ""
	if c.CheckpointDir != "" {
		if err := os.MkdirAll(c.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("exp: %s: %w", name, err)
		}
		path = filepath.Join(c.CheckpointDir, name+".jsonl")
	}
	return sim.RunJournaled(ctx, protocol, factories, path, c.Resume, collect, nil, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "exp: "+format+"\n", args...)
	})
}

// summary returns the Summary of grid name (curves at checkpoints, if
// any), simulating the grid only if the config's table lacks it.
func (c Config) summary(ctx context.Context, name string, protocol sim.Protocol, factories []sim.PolicyFactory, checkpoints []int) (*sim.Summary, error) {
	if sum, ok := c.grids[name]; ok {
		return sum, nil
	}
	sum := sim.NewSummary(checkpoints)
	if err := c.run(ctx, name, protocol, factories, sum.Collect); err != nil {
		return nil, err
	}
	c.grids[name] = sum
	return sum, nil
}

// abmCell runs ABM with the config's weights alone as grid name and
// returns its final-benefit and cautious-friend accumulators: one point
// of a sweep that varies the setup or the batch size.
func (c Config) abmCell(ctx context.Context, name string, protocol sim.Protocol) (benefit, cautious *stats.Welford, err error) {
	abm, err := sim.ABMFactory(c.Weights)
	if err != nil {
		return nil, nil, err
	}
	sum, err := c.summary(ctx, name, protocol, []sim.PolicyFactory{abm}, nil)
	if err != nil {
		return nil, nil, err
	}
	return sum.FinalBenefit(abm.Name), sum.CautiousFriends(abm.Name), nil
}

// generator resolves a preset at the configured scale.
func (c Config) generator(dataset string) (gen.Generator, gen.Preset, error) {
	p, err := gen.PresetByName(dataset)
	if err != nil {
		return nil, gen.Preset{}, err
	}
	g, err := p.Generator(c.Scale)
	if err != nil {
		return nil, gen.Preset{}, err
	}
	return g, p, nil
}
