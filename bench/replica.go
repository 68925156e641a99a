package main

import (
	"fmt"
	"sort"
	"time"

	accu "github.com/accu-sim/accu"
)

// replica recomputes cells of a grid in-process through the public accu
// facade, deriving every seed the way the engine does (sim.Run): network
// i generates from root.SplitN("network", i) and is set up from its
// Split("setup"); run j samples its realization from
// netSeed.SplitN("run", j).Split("realization"), and policy fi of the
// roster is built from runSeed.SplitN("policy", fi). Matching digests
// between a replica and the programs under test therefore cross-check
// that derivation as well as the records. Every call into a layer is
// timed into the tracer.
type replica struct {
	grid  spec
	gen   accu.Generator
	setup accu.Setup
	root  accu.Seed
	t     *tracer

	net     int // network index of inst; -1 before the first cell
	netSeed accu.Seed
	inst    *accu.Instance
}

func newReplica(grid spec, t *tracer) (*replica, error) {
	preset, err := accu.PresetByName(grid.Preset)
	if err != nil {
		return nil, err
	}
	gen, err := preset.Generator(grid.Scale)
	if err != nil {
		return nil, err
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 10 // the programs' common -cautious default
	return &replica{
		grid:  grid,
		gen:   gen,
		setup: setup,
		root:  accu.NewSeed(grid.Seed, grid.Seed*2+1),
		t:     t,
		net:   -1,
	}, nil
}

// newPolicy builds one roster policy the way accurun, accuserv and
// accudist do.
func newPolicy(name string, seed accu.Seed) (accu.Policy, error) {
	switch name {
	case "abm":
		return accu.NewABM(accu.DefaultWeights())
	case "maxdegree":
		return accu.NewMaxDegree(), nil
	case "pagerank":
		return accu.NewPageRank(), nil
	case "random":
		return accu.NewRandom(seed), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// cell computes every record of cell (i, j). Cells of one network should
// come together: only the latest network's instance is kept.
func (r *replica) cell(i, j int) ([]accu.Record, error) {
	t := r.t
	if i != r.net {
		r.net, r.inst = i, nil
		r.netSeed = r.root.SplitN("network", i)
		t0 := time.Now()
		g, err := r.gen.Generate(r.netSeed)
		t.gen.add(t.since(t0))
		if err != nil {
			return nil, fmt.Errorf("generate network %d: %w", i, err)
		}
		t0 = time.Now()
		inst, err := r.setup.Build(g, r.netSeed.Split("setup"))
		t.setup.add(t.since(t0))
		if err != nil {
			return nil, fmt.Errorf("set up network %d: %w", i, err)
		}
		r.inst = inst
	}
	if r.inst == nil {
		return nil, fmt.Errorf("network %d failed earlier", i)
	}
	runSeed := r.netSeed.SplitN("run", j)
	t0 := time.Now()
	re := r.inst.SampleRealization(runSeed.Split("realization"))
	t.realize.add(t.since(t0))
	recs := make([]accu.Record, 0, len(r.grid.Policies))
	for fi, p := range r.grid.Policies {
		pt := t.policy(p.Name)
		t0 = time.Now()
		pol, err := newPolicy(p.Name, runSeed.SplitN("policy", fi))
		pt.build.add(t.since(t0))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		res, err := accu.Run(&timedPolicy{Policy: pol, pt: pt, t: t}, re, r.grid.K)
		t.run.add(t.since(t0))
		if err != nil {
			return nil, fmt.Errorf("run %s on network %d run %d: %w", p.Name, i, j, err)
		}
		t.requests += len(res.Steps)
		recs = append(recs, accu.Record{Policy: p.Name, Network: i, Run: j, Result: res})
	}
	t.cells++
	return recs, nil
}

// timedPolicy times the three policy callbacks the attack loop makes.
type timedPolicy struct {
	accu.Policy
	pt *policyTimes
	t  *tracer
}

func (p *timedPolicy) Init(st *accu.State) error {
	t0 := time.Now()
	err := p.Policy.Init(st)
	p.pt.init.add(p.t.since(t0))
	return err
}

func (p *timedPolicy) SelectNext(st *accu.State) (int, bool) {
	t0 := time.Now()
	u, ok := p.Policy.SelectNext(st)
	p.pt.sel.add(p.t.since(t0))
	return u, ok
}

func (p *timedPolicy) Observe(st *accu.State, out accu.Outcome) {
	t0 := time.Now()
	p.Policy.Observe(st, out)
	p.pt.obs.add(p.t.since(t0))
}

// stage accumulates the time spent in one kind of call.
type stage struct {
	total time.Duration
	n     int
}

func (s *stage) add(d time.Duration) {
	s.total += d
	s.n++
}

// mean returns the mean call time in unit, or 0 with no calls.
func (s stage) mean(unit time.Duration) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// policyTimes splits one policy's time into construction and callbacks.
type policyTimes struct {
	build, init, sel, obs stage
}

func (p *policyTimes) total() time.Duration {
	return p.build.total + p.init.total + p.sel.total + p.obs.total
}

// tracer holds the stage times of one traced pass. Stages are disjoint
// except run, which contains the policy callbacks (its remainder is the
// osn request path).
type tracer struct {
	timers int // time.Now/time.Since pairs taken

	gen, setup, realize, run     stage
	summary, digest, digestSum   stage
	commit, store, lease, upload stage
	result, load, replay         stage
	policies                     map[string]*policyTimes
	cells, requests              int
	durableBytes                 int64
	durable                      []time.Duration // per-cell commit or upload
}

func newTracer() *tracer { return &tracer{policies: make(map[string]*policyTimes)} }

func (t *tracer) since(t0 time.Time) time.Duration {
	t.timers++
	return time.Since(t0)
}

func (t *tracer) policy(name string) *policyTimes {
	pt, ok := t.policies[name]
	if !ok {
		pt = &policyTimes{}
		t.policies[name] = pt
	}
	return pt
}

// stageSum is the time covered by disjoint stages. Replay is made of
// summary, digest and store calls and so is not added again.
func (t *tracer) stageSum() time.Duration {
	var build time.Duration
	for _, pt := range t.policies {
		build += pt.build.total
	}
	return t.gen.total + t.setup.total + t.realize.total + build + t.run.total +
		t.summary.total + t.digest.total + t.digestSum.total +
		t.commit.total + t.store.total + t.lease.total + t.upload.total + t.result.total + t.load.total
}

// durablePercentile returns the q-quantile of the per-cell durable step
// (nearest rank).
func (t *tracer) durablePercentile(q float64) time.Duration {
	if len(t.durable) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), t.durable...)
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	idx := int(q*float64(len(d)) + 0.5)
	if idx < 1 {
		idx = 1
	}
	if idx > len(d) {
		idx = len(d)
	}
	return d[idx-1]
}

// timerCost measures what one time.Now + time.Since pair costs here.
func timerCost() time.Duration {
	const n = 200000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return time.Since(t0) / n
}
