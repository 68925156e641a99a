// Package sim runs the Monte-Carlo experiment protocol of §IV-A: a grid
// of (sample network × repetition) cells, each executing every policy
// under comparison against the same sampled realization, fanned out over
// a bounded worker pool with deterministic per-cell seeding.
//
// Scheduling is cell-granular: workers consume (network, run) cells from
// a shared queue, so a Networks=1, Runs=30 protocol — the "one real
// dataset, many repetitions" shape — parallelizes just as well as a wide
// network grid. Each network's immutable Instance is generated once
// behind a once-per-network gate and shared by every worker; all
// randomness still derives from per-cell seed splits, so the record
// stream is bit-identical at any worker count.
//
// A failed cell aborts the grid: Run returns its *CellError. A
// Checkpointer (see CellJournal) keeps every cell committed before the
// failure, so the grid resumes from there without recomputation; because
// every cell reseeds from its (network, run) coordinates alone, the
// resumed record set is bit-identical to an uninterrupted run's.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// Builder dresses a generated graph into an ACCU instance. osn.Setup is
// the canonical implementation; fault-injection wrappers
// (internal/sim/fault) and custom experiment dressings satisfy it too.
type Builder interface {
	// Build constructs the instance for one sample network. It must be
	// deterministic in (g, seed).
	Build(g *graph.Graph, seed rng.Seed) (*osn.Instance, error)
}

// Protocol describes one Monte-Carlo experiment.
type Protocol struct {
	// Gen produces sample networks (one per Networks index).
	Gen gen.Generator
	// Setup dresses each network into an ACCU instance. osn.Setup
	// satisfies this directly.
	Setup Builder
	// Networks is the number of sample networks (paper: 100).
	Networks int
	// Runs is the number of algorithm executions per network (paper: 30).
	Runs int
	// K is the friend-request budget per run.
	K int
	// BatchSize > 1 switches to the parallel-batching attack model
	// (requests go out BatchSize at a time with no observations inside a
	// batch); 0 or 1 is the paper's fully adaptive one-at-a-time model.
	// Every policy runs under either.
	BatchSize int
	// Seed is the root seed; every cell derives its own stream from it.
	Seed rng.Seed
	// Workers bounds the worker pool; 0 means GOMAXPROCS. An explicit
	// value is honored up to the (network, run) cell count — see
	// ResolveWorkers for the clamp rule; a clamp is surfaced via the
	// sim.workers / sim.workers_requested / sim.workers_clamped metrics
	// rather than silently shrinking the pool to Networks as earlier
	// versions did.
	Workers int
	// Metrics, when non-nil, receives all of the grid's instrumentation:
	// per-cell and per-network wall time, worker busy time and
	// utilisation, the osn environment counters (Run calls
	// Instance.Instrument on every instance it builds) and the policy
	// work counters (Run calls Instrument on every policy it builds that
	// has one, such as ABM and greedy).
	Metrics *obs.Registry
	// OnProgress, when non-nil, is invoked serially (same goroutine as
	// collect, no locking needed) after every collected cell record, so
	// long experiments can report liveness. Cells cancelled mid-flight,
	// failed cells and checkpoint-skipped cells are not reported; Done
	// reaches Total only on a full, error-free, non-resumed run. On a
	// resumed run Progress.Resumed carries the already-durable record
	// count, so Done + Resumed tracks grid-wide completion.
	OnProgress func(Progress)

	// Checkpoint, when non-nil, makes the grid durable: every completed
	// cell is committed after its records are delivered, and cells the
	// checkpoint already holds are skipped on start (surfaced via the
	// sim.cells_skipped counter). Skipped cells' records are NOT
	// re-delivered to collect — replay them first via CellJournal.Replay,
	// as RunJournaled does.
	// Because each cell reseeds from its (network, run) coordinates
	// alone, a resumed grid's merged record set is bit-identical to an
	// uninterrupted run's.
	Checkpoint Checkpointer
}

// Progress is one OnProgress notification.
type Progress struct {
	// Done is the number of cells completed so far; Total the grid size
	// Networks × Runs × len(factories).
	Done, Total int
	// Resumed is the number of records already durable in the checkpoint
	// when this run started (skipped cells × policy roster); 0 on a fresh
	// run. Done counts only this run's deliveries, so grid-wide completion
	// is Done + Resumed out of Total.
	Resumed int
	// Policy is the completed cell's policy name.
	Policy string
	// Network and Run locate the completed cell in the Monte-Carlo grid.
	Network, Run int
}

// Validate checks the protocol is runnable.
func (p Protocol) Validate() error {
	switch {
	case p.Gen == nil:
		return errors.New("sim: nil generator")
	case p.Setup == nil:
		return errors.New("sim: nil setup")
	case p.Networks <= 0:
		return fmt.Errorf("sim: Networks = %d, must be positive", p.Networks)
	case p.Runs <= 0:
		return fmt.Errorf("sim: Runs = %d, must be positive", p.Runs)
	case p.K <= 0:
		return fmt.Errorf("sim: K = %d, must be positive", p.K)
	case p.BatchSize < 0:
		return fmt.Errorf("sim: BatchSize = %d, must be >= 0", p.BatchSize)
	case p.Workers < 0:
		return fmt.Errorf("sim: Workers = %d, must be >= 0", p.Workers)
	}
	return nil
}

// PolicyFactory constructs a fresh policy for each run (policies carry
// per-attack state). The run seed is deterministic per cell, feeding
// randomized policies such as Random.
type PolicyFactory struct {
	// Name labels the policy in records (useful before Init).
	Name string
	// New builds the policy for one run.
	New func(runSeed rng.Seed) (core.Policy, error)
}

// ABMFactory builds an ABM policy factory with the given weights.
func ABMFactory(w Weights) (PolicyFactory, error) {
	if err := w.Validate(); err != nil {
		return PolicyFactory{}, err
	}
	return PolicyFactory{
		Name: w.PolicyName(),
		New: func(rng.Seed) (core.Policy, error) {
			return core.NewABM(w)
		},
	}, nil
}

// Weights aliases core.Weights for caller convenience.
type Weights = core.Weights

// Baselines returns the §IV baseline factories, MaxDegree, PageRank and
// Random, named as their records are.
func Baselines() []PolicyFactory {
	return []PolicyFactory{
		{Name: "maxdegree", New: func(rng.Seed) (core.Policy, error) { return core.NewMaxDegree(), nil }},
		{Name: "pagerank", New: func(rng.Seed) (core.Policy, error) { return core.NewPageRank(), nil }},
		{Name: "random", New: func(s rng.Seed) (core.Policy, error) { return core.NewRandom(s), nil }},
	}
}

// DefaultFactories returns the §IV policy roster: ABM with the given
// weights plus the Baselines.
func DefaultFactories(w Weights) ([]PolicyFactory, error) {
	abm, err := ABMFactory(w)
	if err != nil {
		return nil, err
	}
	return append([]PolicyFactory{abm}, Baselines()...), nil
}

// Record is the outcome of one (policy, network, run) cell. It rides
// inside every CellLine, so it is journal/upload wire format too.
//
//accu:wire
type Record struct {
	// Policy is the factory name.
	Policy string `json:"Policy"`
	// Network and Run locate the Monte-Carlo cell.
	Network int `json:"Network"`
	Run     int `json:"Run"`
	// Result is the full attack trace.
	Result *core.Result `json:"Result"`
}

// engineMetrics holds the runner's instruments, resolved once per Run so
// the per-cell hot path records through plain pointers (all nil — and
// therefore no-ops — when Protocol.Metrics is unset).
type engineMetrics struct {
	cellNS     *obs.Histogram // one policy execution (core.Runner.Run)
	networkNS  *obs.Histogram // generate + setup of one network instance
	cells      *obs.Counter   // records delivered to the collector
	workerBusy *obs.Counter   // summed worker busy nanoseconds
	wallNS     *obs.Histogram // wall time, one observation per Run call
	workers    *obs.Gauge     // resolved pool size
	// workersRequested/workersClamped surface the clamp rule: the gauge
	// holds the caller's explicit Workers request, the counter increments
	// once per Run whose request exceeded the cell count. A clamp is a
	// note, never an error.
	workersRequested *obs.Gauge
	workersClamped   *obs.Counter
	// utilizationPct observes each Run's pool utilisation — this run's
	// busy time over wall × workers — in percent (100 = fully busy).
	utilizationPct *obs.Histogram
	// cellsSkipped counts cells skipped because the checkpoint already
	// holds them.
	cellsSkipped *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		cellNS:           reg.Histogram("sim.cell_ns"),
		networkNS:        reg.Histogram("sim.network_ns"),
		cells:            reg.Counter("sim.cells"),
		workerBusy:       reg.Counter("sim.worker_busy_ns"),
		wallNS:           reg.Histogram("sim.wall_ns"),
		workers:          reg.Gauge("sim.workers"),
		workersRequested: reg.Gauge("sim.workers_requested"),
		workersClamped:   reg.Counter("sim.workers_clamped"),
		utilizationPct:   reg.Histogram("sim.worker_utilization_pct"),
		cellsSkipped:     reg.Counter("sim.cells_skipped"),
	}
}

// ResolveWorkers reports the worker pool size Run will use for this
// protocol and whether an explicit Workers request was clamped. The pool
// is bounded by the number of (network, run) cells — the scheduler's unit
// of parallelism — never by Networks alone, so single-network protocols
// with many repetitions use every worker they ask for.
func (p Protocol) ResolveWorkers() (workers int, clamped bool) {
	workers = p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cells := p.Networks * p.Runs; cells > 0 && workers > cells {
		return cells, p.Workers > cells
	}
	return workers, false
}

// Run executes the protocol. Every policy in factories attacks the same
// realization within a cell, so policies are compared on identical ground
// truth. collect is invoked serially (no locking needed by the caller)
// in completion order, but that order reaches no published number: the
// record set is bit-identical at any worker count, and RecordDigest,
// Summary and every stats accumulator depend on the set alone. Run stops
// at the first error — a failed cell's *CellError or a checkpoint Commit
// error — or when ctx is cancelled (a worker error always wins over the
// context cancellation it triggers).
func Run(ctx context.Context, p Protocol, factories []PolicyFactory, collect func(Record)) error {
	e, err := newEngine(p, factories)
	if err != nil {
		return err
	}
	return e.run(ctx, collect)
}

// engine is the per-Run scheduler state: the memoized network slots and
// the checkpoint skip set.
type engine struct {
	p         Protocol
	factories []PolicyFactory
	em        engineMetrics
	workers   int
	nets      []netSlot
	skip      []bool // cells the checkpoint already holds
	resumed   int    // records the checkpoint already holds (skipped cells × factories)
}

// newEngine validates the protocol and prepares the grid: the checkpoint
// is consulted once, and each network slot learns how many of its cells
// are actually scheduled so release accounting stays exact under resume.
func newEngine(p Protocol, factories []PolicyFactory) (*engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(factories) == 0 {
		return nil, errors.New("sim: no policy factories")
	}
	workers, clamped := p.ResolveWorkers()
	em := newEngineMetrics(p.Metrics)
	em.workers.Set(float64(workers))
	if p.Workers > 0 {
		em.workersRequested.Set(float64(p.Workers))
	}
	if clamped {
		em.workersClamped.Inc()
	}
	e := &engine{
		p:         p,
		factories: factories,
		em:        em,
		workers:   workers,
		nets:      make([]netSlot, p.Networks),
		skip:      make([]bool, p.Networks*p.Runs),
	}
	for c := range e.skip {
		i, j := c/p.Runs, c%p.Runs
		if p.Checkpoint != nil && p.Checkpoint.Done(CellKey{Network: i, Run: j}) {
			e.skip[c] = true
			e.resumed += len(factories)
			em.cellsSkipped.Inc()
			continue
		}
		e.nets[i].remaining.Add(1)
	}
	return e, nil
}

// run drives the worker pool over the scheduled cells and collects.
func (e *engine) run(ctx context.Context, collect func(Record)) error {
	// One registry may span several Run calls (an experiment per dataset),
	// so utilisation is computed from this run's busy-time delta.
	busyBefore := e.em.workerBusy.Value()
	start := time.Now()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// firstErr captures the first fatal worker failure. It is published
	// before cancel() and read after the worker pool drains, so every
	// exit path below prefers it over the secondary ctx.Err() the
	// failure causes.
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}

	cellIdx := make(chan int)
	records := make(chan Record)

	var wg sync.WaitGroup
	wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go func() {
			defer wg.Done()
			sc := newScratch(len(e.factories))
			for c := range cellIdx {
				busyStart := time.Now()
				err := e.runCell(ctx, sc, c, records)
				e.em.workerBusy.Add(int64(time.Since(busyStart)))
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}

	// Feed scheduled cell indices in network-major order (all runs of
	// network 0, then network 1, ...) so a draining pool touches as few
	// instances as possible at once; close records when all workers are
	// done.
	go func() {
		defer close(cellIdx)
		for c := 0; c < e.p.Networks*e.p.Runs; c++ {
			if e.skip[c] {
				continue
			}
			select {
			case cellIdx <- c:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(records)
	}()

	done, total := 0, e.p.Networks*e.p.Runs*len(e.factories)
	for rec := range records {
		collect(rec)
		done++
		if e.p.OnProgress != nil {
			e.p.OnProgress(Progress{Done: done, Total: total, Resumed: e.resumed, Policy: rec.Policy, Network: rec.Network, Run: rec.Run})
		}
	}

	// The pool has drained (records closed), so no cell will release its
	// network slot anymore. A cancelled grid leaves the slots of its
	// never-scheduled cells pinned; unpin them all so an abandoned run
	// cannot hold instances live through the engine.
	for i := range e.nets {
		e.nets[i].inst = nil
	}

	wall := time.Since(start)
	e.em.wallNS.Observe(int64(wall))
	if wall > 0 && e.workers > 0 {
		busy := e.em.workerBusy.Value() - busyBefore
		e.em.utilizationPct.Observe(int64(100 * float64(busy) / (float64(wall) * float64(e.workers))))
	}
	// The records channel closed, so the pool has drained and firstErr —
	// written before any cancel() — is stable: prefer it on every path.
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// netSlot memoizes one network's immutable instance behind a build-once
// gate, and drops it once every scheduled cell of the network has
// released so long grids do not pin all Networks instances in memory at
// once. The last release unpins the instance only after every other
// cell of the network has released (the remaining counter orders them),
// so no reader races it.
type netSlot struct {
	once sync.Once
	inst *osn.Instance
	err  error
	// remaining counts the scheduled cells of this network still owed a
	// release; at zero the memoized instance is unpinned.
	remaining atomic.Int32
}

// get returns the network's instance, building it on first use. Callers
// racing the builder block on the once-gate instead of regenerating.
func (s *netSlot) get(p Protocol, i int, netSeed rng.Seed, em engineMetrics) (*osn.Instance, error) {
	s.once.Do(func() {
		defer obs.StartSpan(em.networkNS).End()
		g, err := p.Gen.Generate(netSeed)
		if err != nil {
			s.err = fmt.Errorf("sim: generate network %d: %w", i, err)
			return
		}
		inst, err := p.Setup.Build(g, netSeed.Split("setup"))
		if err != nil {
			s.err = fmt.Errorf("sim: setup network %d: %w", i, err)
			return
		}
		inst.Instrument(p.Metrics)
		s.inst = inst
	})
	return s.inst, s.err
}

// release marks one scheduled cell of the network finished — success,
// failure and cancellation alike; after the last one the memoized
// instance is unpinned (in-flight references keep it alive). Callers
// invoke it exactly once per cell, via defer, so no early-return path
// can leak the instance for the rest of the grid.
func (s *netSlot) release() {
	if s.remaining.Add(-1) == 0 {
		s.inst = nil
	}
}

// scratch is one pool goroutine's pooled attack state (core.Runner)
// and, for policies implementing core.Reusable, the policy instances
// themselves — their Init re-slices internal buffers, so reuse turns
// three-plus O(N) allocations per cell into reseeds.
type scratch struct {
	runner core.Runner
	pols   []core.Reusable
}

func newScratch(nfactories int) *scratch {
	return &scratch{pols: make([]core.Reusable, nfactories)}
}

// policy returns factory fi's policy for a cell seeded by seed, reusing a
// cached Reusable instance when one exists. A freshly built policy that
// reports work counters is attached to reg.
func (sc *scratch) policy(f PolicyFactory, fi int, seed rng.Seed, reg *obs.Registry) (core.Policy, error) {
	if cached := sc.pols[fi]; cached != nil {
		cached.Reseed(seed)
		return cached, nil
	}
	pol, err := f.New(seed)
	if err != nil {
		return nil, fmt.Errorf("sim: build policy %s: %w", f.Name, err)
	}
	if m, ok := pol.(interface{ Instrument(*obs.Registry) }); ok && reg != nil {
		m.Instrument(reg)
	}
	if r, ok := pol.(core.Reusable); ok {
		sc.pols[fi] = r
	}
	return pol, nil
}

// runCell executes cell c = network·Runs + run, delivers its records and
// commits it to the checkpoint. Records are delivered only for fully
// successful cells, so a failed cell never leaks a partial policy roster
// into the collector. The network slot is released exactly once per cell
// on every path — success, failure and cancellation alike.
func (e *engine) runCell(ctx context.Context, sc *scratch, c int, records chan<- Record) error {
	i, j := c/e.p.Runs, c%e.p.Runs
	defer e.nets[i].release()
	if ctx.Err() != nil {
		return nil // cooperative cancellation, not a cell failure
	}
	recs, pol, err := e.computeCell(sc, i, j)
	if err != nil {
		return &CellError{Policy: pol, Network: i, Run: j, Err: err}
	}
	return e.deliver(ctx, recs, i, j, records)
}

// deliver streams one completed cell's records to the collector and,
// once all of them are out, commits the cell to the checkpoint. The
// sim.cells counter increments only after a record is actually received,
// so cancelled cells are never counted-but-uncollected.
func (e *engine) deliver(ctx context.Context, recs []Record, i, j int, records chan<- Record) error {
	for _, rec := range recs {
		select {
		case records <- rec:
			e.em.cells.Inc()
		case <-ctx.Done():
			return nil
		}
	}
	if e.p.Checkpoint != nil {
		if err := e.p.Checkpoint.Commit(CellKey{Network: i, Run: j}, recs); err != nil {
			return fmt.Errorf("sim: checkpoint cell network %d run %d: %w", i, j, err)
		}
	}
	return nil
}

// computeCell computes every policy record of cell (i, j): sample the
// cell's realization and attack it with every policy. Seeds derive from
// the cell's coordinates alone (network split, then run split, then
// realization/policy splits), which is what keeps the record stream
// byte-identical across worker counts, scheduler versions and resumes.
// The failing factory's name accompanies the error when the failure is
// attributable to one policy.
func (e *engine) computeCell(sc *scratch, i, j int) ([]Record, string, error) {
	netSeed := e.p.Seed.SplitN("network", i)
	inst, err := e.nets[i].get(e.p, i, netSeed, e.em)
	if err != nil {
		return nil, "", err
	}
	runSeed := netSeed.SplitN("run", j)
	re := inst.SampleRealization(runSeed.Split("realization"))
	recs := make([]Record, 0, len(e.factories))
	for fi, f := range e.factories {
		pol, err := sc.policy(f, fi, runSeed.SplitN("policy", fi), e.p.Metrics)
		if err != nil {
			return nil, f.Name, err
		}
		cell := obs.StartSpan(e.em.cellNS)
		res, err := sc.runner.Run(pol, re, e.p.K, max(e.p.BatchSize, 1))
		cell.End()
		if err != nil {
			return nil, f.Name, fmt.Errorf("sim: run %s on network %d run %d: %w", f.Name, i, j, err)
		}
		recs = append(recs, Record{Policy: f.Name, Network: i, Run: j, Result: res})
	}
	return recs, "", nil
}
