package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/stats"
)

// testProtocol returns a tiny but fully featured protocol.
func testProtocol() Protocol {
	s := osn.DefaultSetup()
	s.NumCautious = 5
	return Protocol{
		Gen:      gen.ErdosRenyi{N: 200, M: 2000},
		Setup:    s,
		Networks: 3,
		Runs:     2,
		K:        15,
		Seed:     rng.NewSeed(42, 43),
		Workers:  2,
	}
}

func TestProtocolValidate(t *testing.T) {
	valid := testProtocol()
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Protocol){
		func(p *Protocol) { p.Gen = nil },
		func(p *Protocol) { p.Setup = nil },
		func(p *Protocol) { p.Networks = 0 },
		func(p *Protocol) { p.Runs = 0 },
		func(p *Protocol) { p.K = 0 },
		func(p *Protocol) { p.Workers = -1 },
	}
	for i, mutate := range cases {
		p := testProtocol()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestRunProducesAllCells(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	err = Run(context.Background(), p, factories, func(r Record) {
		recs = append(recs, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Networks * p.Runs * len(factories)
	if len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}
	// Every cell present exactly once.
	seen := map[string]int{}
	for _, r := range recs {
		key := r.Policy + "/" + itoa(r.Network) + "/" + itoa(r.Run)
		seen[key]++
		if len(r.Result.Steps) == 0 || len(r.Result.Steps) > p.K {
			t.Errorf("cell %s: %d steps", key, len(r.Result.Steps))
		}
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("cell %s seen %d times", k, c)
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestRunDeterministicAcrossWorkerCounts pins the determinism contract
// that map iteration order would break first: Go randomizes the order of
// every range over a map, so any map-ordered step on the record path
// (a batch deduplicated through a map, a summary emitting its rows from
// one) gives a different answer from run to run. Each input — the tiny
// Erdős–Rényi protocol and every preset at a small scale, unbatched and
// with BatchSize 4, over the full five-policy roster — runs three times
// at 1 worker and three times at 4 in one process. Every run must give
// the same RecordDigest and the same Summary JSON, sketch bytes
// included. The Summary is fed in completion order, which differs from
// run to run at 4 workers: its Welford snapshots must not follow it.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	factories = append(factories, PolicyFactory{Name: "greedy", New: func(rng.Seed) (core.Policy, error) {
		return core.NewPureGreedy(), nil
	}})
	names := append([]string{"erdos-renyi"}, gen.PresetNames()...)
	inputs := []Protocol{testProtocol()}
	for _, name := range names[1:] {
		preset, err := gen.PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := preset.Generator(0.005)
		if err != nil {
			t.Fatal(err)
		}
		p := testProtocol()
		p.Gen, p.Networks, p.Runs, p.K = g, 2, 2, 10
		inputs = append(inputs, p)
	}
	for i, p := range inputs {
		name := names[i]
		for _, batch := range []int{0, 4} {
			p.BatchSize = batch
			var wantDigest, wantSummary string
			for _, workers := range []int{1, 1, 1, 4, 4, 4} {
				p.Workers = workers
				digest, summary := digestAndSummary(t, p, factories)
				if wantDigest == "" {
					wantDigest, wantSummary = digest, summary
					continue
				}
				if digest != wantDigest {
					t.Errorf("%s batch %d workers %d: digest %s, first run %s", name, batch, workers, digest, wantDigest)
				}
				if summary != wantSummary {
					t.Errorf("%s batch %d workers %d: summary differs from the first run:\n got %s\nwant %s", name, batch, workers, summary, wantSummary)
				}
			}
		}
	}
}

// digestAndSummary runs p and returns its record digest and the JSON of
// a Summary over its records: per policy, in Summary.Policies order, the
// Welford and sketch snapshots of both outcome columns.
func digestAndSummary(t *testing.T, p Protocol, factories []PolicyFactory) (string, string) {
	t.Helper()
	digest, sum := NewRecordDigest(), NewSummary(nil)
	err := Run(context.Background(), p, factories, func(r Record) {
		digest.Collect(r)
		sum.Collect(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Policy                        string
		Benefit, Cautious             stats.WelfordSnapshot
		BenefitSketch, CautiousSketch stats.SketchSnapshot
	}
	var rows []row
	for _, pol := range sum.Policies() {
		rows = append(rows, row{
			Policy:         pol,
			Benefit:        sum.FinalBenefit(pol).Snapshot(),
			Cautious:       sum.CautiousFriends(pol).Snapshot(),
			BenefitSketch:  sum.FinalBenefitSketch(pol).Snapshot(),
			CautiousSketch: sum.CautiousFriendsSketch(pol).Snapshot(),
		})
	}
	out, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return digest.Sum(), string(out)
}

// marshalSortedRecords runs the protocol and returns the full record set
// — traces, journals and all — serialized in (policy, network, run)
// order, so two schedules can be compared byte for byte.
func marshalSortedRecords(t *testing.T, p Protocol, workers int) []byte {
	t.Helper()
	p.Workers = workers
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := Run(context.Background(), p, factories, func(r Record) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		return a.Run < b.Run
	})
	out, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunRecordStreamIdenticalAcrossWorkers pins the cell scheduler's
// determinism contract: the sorted record stream is byte-identical
// between Workers=1 and Workers=8, including the single-network shape
// the old per-network fan-out used to serialize.
func TestRunRecordStreamIdenticalAcrossWorkers(t *testing.T) {
	for _, networks := range []int{1, 3} {
		p := testProtocol()
		p.Networks = networks
		p.Runs = 4
		seq := marshalSortedRecords(t, p, 1)
		par := marshalSortedRecords(t, p, 8)
		if !bytes.Equal(seq, par) {
			t.Errorf("Networks=%d: record streams differ between Workers=1 and Workers=8", networks)
		}
	}
}

// TestRunWorkersExceedNetworks exercises a pool wider than the network
// grid — impossible under the old scheduler's Networks clamp — and is
// run under -race in CI to shake out instance-sharing races.
func TestRunWorkersExceedNetworks(t *testing.T) {
	p := testProtocol()
	p.Networks = 2
	p.Runs = 6
	p.Workers = 8
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Run(context.Background(), p, factories, func(Record) { n++ }); err != nil {
		t.Fatal(err)
	}
	if want := p.Networks * p.Runs * len(factories); n != want {
		t.Fatalf("records = %d, want %d", n, want)
	}
}

// TestRunSingleNetworkCancellation cancels mid-run on the Networks=1
// shape, where every worker drains cells of the same memoized instance.
func TestRunSingleNetworkCancellation(t *testing.T) {
	p := testProtocol()
	p.Networks = 1
	p.Runs = 40
	p.Workers = 4
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	err = Run(ctx, p, factories, func(Record) {
		if n.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got >= int64(p.Runs*len(factories)) {
		t.Errorf("cancellation did not stop the run (%d records)", got)
	}
}

// TestRunWorkersClampMetrics checks the clamp is honored at cell (not
// network) granularity and surfaced through the registry instead of
// silently downgrading.
func TestRunWorkersClampMetrics(t *testing.T) {
	p := testProtocol()
	p.Networks = 2
	p.Runs = 3
	p.Workers = 1000
	reg := obs.New()
	p.Metrics = reg
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), p, factories, func(Record) {}); err != nil {
		t.Fatal(err)
	}
	cells := p.Networks * p.Runs
	if got := reg.Gauge("sim.workers").Value(); got != float64(cells) {
		t.Errorf("sim.workers = %v, want cell count %d", got, cells)
	}
	if got := reg.Gauge("sim.workers_requested").Value(); got != float64(p.Workers) {
		t.Errorf("sim.workers_requested = %v, want %d", got, p.Workers)
	}
	if got := reg.Counter("sim.workers_clamped").Value(); got != 1 {
		t.Errorf("sim.workers_clamped = %d, want 1", got)
	}
}

func TestResolveWorkers(t *testing.T) {
	cases := []struct {
		networks, runs, workers int
		want                    int
		clamped                 bool
	}{
		{1, 30, 8, 8, false},   // the shape the old scheduler serialized
		{1, 4, 8, 4, true},     // explicit request above the cell count
		{2, 3, 6, 6, false},    // exactly the cell count
		{100, 30, 8, 8, false}, // paper grid
	}
	for _, c := range cases {
		p := Protocol{Networks: c.networks, Runs: c.runs, Workers: c.workers}
		got, clamped := p.ResolveWorkers()
		if got != c.want || clamped != c.clamped {
			t.Errorf("ResolveWorkers(networks=%d runs=%d workers=%d) = (%d, %v), want (%d, %v)",
				c.networks, c.runs, c.workers, got, clamped, c.want, c.clamped)
		}
	}
}

func TestRunPairedRealizations(t *testing.T) {
	// Policies within a cell attack the same realization: a policy that
	// requests the same users must obtain the same benefit as itself.
	// Verify pairing by running two identical ABM factories and checking
	// cell-wise equality.
	p := testProtocol()
	abm1, err := ABMFactory(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	abm2, err := ABMFactory(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	abm2.Name = "abm-clone"
	type key struct{ network, run int }
	first := map[key]float64{}
	second := map[key]float64{}
	err = Run(context.Background(), p, []PolicyFactory{abm1, abm2}, func(r Record) {
		k := key{r.Network, r.Run}
		if r.Policy == abm2.Name {
			second[k] = r.Result.Benefit
		} else {
			first[k] = r.Result.Benefit
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range first {
		if second[k] != v {
			t.Fatalf("cell %+v: %v vs %v — realizations not paired", k, v, second[k])
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	p := testProtocol()
	p.Networks = 50 // plenty of work to cancel mid-flight
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	err = Run(ctx, p, factories, func(Record) {
		if n.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got := n.Load(); got >= int64(p.Networks*p.Runs*len(factories)) {
		t.Errorf("cancellation did not stop the run (%d records)", got)
	}
}

// TestRunPrefersWorkerErrorOverCancellation pins the error-ordering
// contract: when a worker failure and a context cancellation race — here
// forced by a factory that cancels the external context right before
// failing — Run must surface the worker error, never the secondary
// context.Canceled.
func TestRunPrefersWorkerErrorOverCancellation(t *testing.T) {
	p := testProtocol()
	sentinel := errors.New("factory exploded")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	broken := PolicyFactory{
		Name: "broken",
		New: func(rng.Seed) (core.Policy, error) {
			cancel() // external cancellation arrives with the failure
			return nil, sentinel
		},
	}
	err := Run(ctx, p, []PolicyFactory{broken}, func(Record) {})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the worker error %v", err, sentinel)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v leaked the cancellation instead of the worker error", err)
	}
}

// TestRunOnProgressDelivery counts progress callbacks: exactly one per
// cell, serially, with monotonically increasing Done reaching Total.
func TestRunOnProgressDelivery(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	total := p.Networks * p.Runs * len(factories)
	var events []Progress
	p.OnProgress = func(pr Progress) { events = append(events, pr) }
	collected := 0
	if err := Run(context.Background(), p, factories, func(Record) { collected++ }); err != nil {
		t.Fatal(err)
	}
	if len(events) != total {
		t.Fatalf("got %d progress events, want %d", len(events), total)
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Fatalf("event %d: Done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.Total != total {
			t.Fatalf("event %d: Total = %d, want %d", i, ev.Total, total)
		}
		if ev.Policy == "" {
			t.Fatalf("event %d: empty policy name", i)
		}
	}
	if collected != total {
		t.Fatalf("collect saw %d records, want %d", collected, total)
	}
}

// TestRunRecordsMetrics checks that an attached registry receives the
// engine counters, the osn environment counters and the ABM policy
// counters for a full run.
func TestRunRecordsMetrics(t *testing.T) {
	p := testProtocol()
	reg := obs.New()
	p.Metrics = reg
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), p, factories, func(Record) {}); err != nil {
		t.Fatal(err)
	}
	total := int64(p.Networks * p.Runs * len(factories))
	if got := reg.Counter("sim.cells").Value(); got != total {
		t.Errorf("sim.cells = %d, want %d", got, total)
	}
	if got := reg.Histogram("sim.cell_ns").Count(); got != total {
		t.Errorf("sim.cell_ns count = %d, want %d", got, total)
	}
	if got := reg.Histogram("sim.network_ns").Count(); got != int64(p.Networks) {
		t.Errorf("sim.network_ns count = %d, want %d", got, p.Networks)
	}
	if got := reg.Histogram("osn.sample_realization_ns").Count(); got != int64(p.Networks*p.Runs) {
		t.Errorf("osn.sample_realization_ns count = %d, want %d", got, p.Networks*p.Runs)
	}
	for _, name := range []string{"osn.requests", "osn.accepts", "osn.edges_revealed", "abm.heap_pops", "abm.rescores"} {
		if got := reg.Counter(name).Value(); got <= 0 {
			t.Errorf("%s = %d, want > 0", name, got)
		}
	}
	if got := reg.Gauge("sim.workers").Value(); got != float64(p.Workers) {
		t.Errorf("sim.workers = %v, want %d", got, p.Workers)
	}
	if got := reg.Histogram("sim.worker_utilization_pct").Count(); got != 1 {
		t.Errorf("sim.worker_utilization_pct count = %d, want 1 (one Run call)", got)
	}
	if util := reg.Histogram("sim.worker_utilization_pct").Max(); util <= 0 {
		t.Errorf("sim.worker_utilization_pct = %v, want > 0", util)
	}
	if got := reg.Histogram("sim.wall_ns").Count(); got != 1 {
		t.Errorf("sim.wall_ns count = %d, want 1", got)
	}
	// Requests are bounded by the budget: every cell sends at most K.
	if reqs := reg.Counter("osn.requests").Value(); reqs > total*int64(p.K) {
		t.Errorf("osn.requests = %d exceeds cells×K = %d", reqs, total*int64(p.K))
	}
}

// TestRunOSNMetricsCountEveryRequest: the osn instruments count every
// request and acceptance the records show, batched or not.
func TestRunOSNMetricsCountEveryRequest(t *testing.T) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 4} {
		p := testProtocol()
		p.BatchSize = batch
		reg := obs.New()
		p.Metrics = reg
		var requests, accepts int64
		err := Run(context.Background(), p, factories, func(r Record) {
			for _, s := range r.Result.Steps {
				requests++
				if s.Accepted {
					accepts++
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("osn.requests").Value(); got != requests {
			t.Errorf("batch %d: osn.requests = %d, records sent %d", batch, got, requests)
		}
		if got := reg.Counter("osn.accepts").Value(); got != accepts {
			t.Errorf("batch %d: osn.accepts = %d, records accepted %d", batch, got, accepts)
		}
		if got := reg.Histogram("osn.reveal_ns").Count(); got != accepts {
			t.Errorf("batch %d: osn.reveal_ns count = %d, records accepted %d", batch, got, accepts)
		}
		if got := reg.Counter("osn.edges_revealed").Value(); got <= 0 {
			t.Errorf("batch %d: osn.edges_revealed = %d, want > 0", batch, got)
		}
	}
}

func TestRunPropagatesGeneratorError(t *testing.T) {
	p := testProtocol()
	p.Gen = gen.ErdosRenyi{N: 3, M: 100} // invalid: too many edges
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	err = Run(context.Background(), p, factories, func(Record) {})
	if err == nil {
		t.Fatal("want generator error")
	}
	if !errors.Is(err, gen.ErrBadParam) {
		t.Errorf("err = %v, want wrapped ErrBadParam", err)
	}
}

func TestRunPropagatesSetupError(t *testing.T) {
	p := testProtocol()
	p.Gen = gen.ErdosRenyi{N: 50, M: 20} // too sparse for the degree band
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	err = Run(context.Background(), p, factories, func(Record) {})
	if !errors.Is(err, osn.ErrNotEnoughCandidates) {
		t.Errorf("err = %v, want ErrNotEnoughCandidates", err)
	}
}

func TestRunNoFactories(t *testing.T) {
	if err := Run(context.Background(), testProtocol(), nil, func(Record) {}); err == nil {
		t.Error("want error for empty factories")
	}
}

func TestABMFactoryValidation(t *testing.T) {
	if _, err := ABMFactory(core.Weights{WD: -1}); err == nil {
		t.Error("want error for invalid weights")
	}
}

func TestDefaultFactoriesRoster(t *testing.T) {
	fs, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range fs {
		names[f.Name] = true
		pol, err := f.New(rng.NewSeed(1, 1))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if pol == nil {
			t.Fatalf("%s: nil policy", f.Name)
		}
	}
	for _, want := range []string{"maxdegree", "pagerank", "random", "abm(wD=0.50,wI=0.50)"} {
		if !names[want] {
			t.Errorf("missing factory %q (have %v)", want, names)
		}
	}
}
