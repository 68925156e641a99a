// Package accu is a Go implementation of "Adaptive Crawling with Cautious
// Users" (Li, Pan, Tong & Pan, IEEE ICDCS 2019): the ACCU problem — a
// socialbot attacker adaptively befriending users of a partially known
// social network where cautious users accept friend requests only past a
// mutual-friend threshold — together with the ABM greedy algorithm, the
// baselines it is evaluated against, the adaptive-submodular-ratio theory
// of §III, synthetic stand-ins for the paper's SNAP datasets, and a
// harness regenerating every table and figure of §IV.
//
// # Quick start
//
//	preset, _ := accu.PresetByName("facebook")
//	generator, _ := preset.Generator(0.05)            // 5%-scale network
//	g, _ := generator.Generate(accu.NewSeed(1, 2))
//	inst, _ := accu.DefaultSetup().Build(g, accu.NewSeed(3, 4))
//	re := inst.SampleRealization(accu.NewSeed(5, 6))
//	abm, _ := accu.NewABM(accu.DefaultWeights())
//	res, _ := accu.Run(abm, re, 100)
//	fmt.Println(res.Benefit, res.CautiousFriends)
//
// The package is a facade over the internal implementation; everything a
// downstream user needs is re-exported here.
package accu

import (
	"context"
	"fmt"
	"io"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/defense"
	"github.com/accu-sim/accu/internal/exp"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/pagerank"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
	"github.com/accu-sim/accu/internal/theory"
)

// Core model types, re-exported from the implementation packages.
type (
	// Graph is an immutable undirected simple graph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates edges before freezing into a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Instance is a fully specified ACCU problem instance.
	Instance = osn.Instance
	// Params bundles per-node and per-edge instance attributes.
	Params = osn.Params
	// Setup is the §IV-A experiment protocol for dressing a graph.
	Setup = osn.Setup
	// Realization is one ground-truth draw Φ of the instance randomness.
	Realization = osn.Realization
	// State is the attacker's partial realization ω.
	State = osn.State
	// Kind classifies a user as Reckless or Cautious.
	Kind = osn.Kind
	// Outcome reports the result of one friend request.
	Outcome = osn.Outcome
	// Policy is an adaptive attack strategy π.
	Policy = core.Policy
	// ABM is the Adaptive Benefit Maximization policy of Algorithm 1.
	ABM = core.ABM
	// Weights are the ABM potential weights (w_D, w_I).
	Weights = core.Weights
	// Result is the trace of one executed attack.
	Result = core.Result
	// Step records one friend request of an executed attack.
	Step = core.Step
	// Seed identifies a deterministic random stream.
	Seed = rng.Seed
	// Generator produces sample networks from seeds.
	Generator = gen.Generator
	// Preset is a calibrated stand-in for a Table I dataset.
	Preset = gen.Preset
	// FixedGenerator wraps a pre-built graph (e.g. real SNAP data) as a
	// Generator.
	FixedGenerator = gen.Fixed
	// Journal is a replayable record of an attack's request sequence.
	Journal = osn.Journal
)

// User kinds.
const (
	// Reckless users accept friend requests with probability q(u).
	Reckless = osn.Reckless
	// Cautious users accept iff the mutual-friend threshold θ is met.
	Cautious = osn.Cautious
)

// NewSeed builds a deterministic seed from two words of entropy.
func NewSeed(hi, lo uint64) Seed { return rng.NewSeed(hi, lo) }

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// ReadEdgeList parses a SNAP-style edge list into a Graph, compacting
// sparse node ids and collapsing directed duplicates.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList serializes a Graph as a SNAP-style edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewInstance validates parameters and builds an immutable ACCU instance.
func NewInstance(g *Graph, p Params) (*Instance, error) { return osn.NewInstance(g, p) }

// DefaultSetup returns the paper's §IV-A protocol parameters: 100
// cautious users from the degree band [10, 100], θ = 0.3·deg, B_f = 2/50
// (reckless/cautious), B_fof = 1.
func DefaultSetup() Setup { return osn.DefaultSetup() }

// NewAttack starts an attack against a realization with no requests sent.
func NewAttack(re *Realization) *State { return osn.NewState(re) }

// DefaultWeights returns the paper's balanced ABM weights w_D = w_I = 0.5.
func DefaultWeights() Weights { return core.DefaultWeights() }

// NewABM builds the Adaptive Benefit Maximization policy.
func NewABM(w Weights, opts ...core.Option) (*ABM, error) { return core.NewABM(w, opts...) }

// WithFullRescan disables ABM's lazy re-scoring (ablation).
func WithFullRescan() core.Option { return core.WithFullRescan() }

// WithMetrics records ABM's work counters (heap pops, stale skips,
// rescores, eager-set sizes) into the given registry.
func WithMetrics(reg *Metrics) core.Option { return core.WithMetrics(reg) }

// NewPureGreedy returns the classical adaptive greedy (w_D=1, w_I=0).
func NewPureGreedy() *ABM { return core.NewPureGreedy() }

// NewMaxDegree returns the MaxDegree baseline policy.
func NewMaxDegree() Policy { return core.NewMaxDegree() }

// NewPageRank returns the PageRank baseline policy.
func NewPageRank() Policy { return core.NewPageRank() }

// NewRandom returns the uniform-random baseline policy.
func NewRandom(seed Seed) Policy { return core.NewRandom(seed) }

// Potential evaluates the ABM potential P(u|ω) for a candidate user.
func Potential(st *State, u int, w Weights) float64 { return core.Potential(st, u, w) }

// Run executes a policy against a realization for up to k requests.
func Run(p Policy, re *Realization, k int) (*Result, error) { return core.Run(p, re, k) }

// PageRankScores computes power-iteration PageRank with conventional
// parameters (damping 0.85).
func PageRankScores(g *Graph) ([]float64, error) {
	return pagerank.Scores(g, pagerank.DefaultOptions())
}

// PresetByName looks up a Table I dataset stand-in ("facebook",
// "slashdot", "twitter", "dblp").
func PresetByName(name string) (Preset, error) { return gen.PresetByName(name) }

// PresetNames lists the available presets.
func PresetNames() []string { return gen.PresetNames() }

// LoadEdgeList reads a SNAP-style edge-list file into a FixedGenerator,
// so the experiment harness can run against real data.
func LoadEdgeList(path string) (FixedGenerator, error) { return gen.LoadEdgeList(path) }

// ReadJournal parses a journal written by Journal.WriteTo.
func ReadJournal(r io.Reader) (*Journal, error) { return osn.ReadJournal(r) }

// Monte-Carlo simulation types, re-exported from the runner.
type (
	// Protocol describes one Monte-Carlo experiment.
	Protocol = sim.Protocol
	// PolicyFactory builds a fresh policy per run.
	PolicyFactory = sim.PolicyFactory
	// Record is the outcome of one (policy, network, run) cell.
	Record = sim.Record
	// Progress is one Protocol.OnProgress notification.
	Progress = sim.Progress
	// Summary aggregates Monte-Carlo records per policy (final benefit,
	// cautious friends, benefit-vs-k curves).
	Summary = sim.Summary
	// Builder constructs an Instance from a generated graph; Setup
	// satisfies it, and wrappers (caching, fault injection) slot into
	// Protocol.Setup through it.
	Builder = sim.Builder
	// Checkpointer persists completed Monte-Carlo cells so an interrupted
	// grid can resume without recomputation (Protocol.Checkpoint).
	Checkpointer = sim.Checkpointer
	// CellKey identifies one (network, run) Monte-Carlo cell.
	CellKey = sim.CellKey
	// CellJournal is the append-only JSONL Checkpointer.
	CellJournal = sim.CellJournal
	// CellError describes the failed Monte-Carlo cell that aborted a
	// run; MonteCarlo returns it as the error.
	CellError = sim.CellError
	// RecordDigest accumulates an order-insensitive SHA-256 fingerprint
	// of a Monte-Carlo record set, for bit-identical-resume assertions.
	RecordDigest = sim.RecordDigest
)

// NewRecordDigest returns an empty record-set digest accumulator; feed it
// from your collect callback (and CellJournal.Replay when resuming) and
// compare Sum() across runs.
func NewRecordDigest() *RecordDigest { return sim.NewRecordDigest() }

// Streaming statistics, re-exported from the stats layer. These are the
// types Summary accessors return and job results embed.
type (
	// Welford is a numerically stable online mean/variance accumulator.
	Welford = stats.Welford
	// WelfordSnapshot is the JSON view of a Welford accumulator.
	WelfordSnapshot = stats.WelfordSnapshot
	// Sketch is a mergeable streaming quantile sketch whose serialized
	// snapshot is byte-identical for any merge order or partition of the
	// same observation multiset.
	Sketch = stats.Sketch
	// SketchSnapshot is the JSON view of a Sketch (quantiles + centroids).
	SketchSnapshot = stats.SketchSnapshot
	// StoreRecord is one per-cell observation row of a columnar result
	// store.
	StoreRecord = stats.StoreRecord
	// StoreWriter appends rows to a columnar result store file.
	StoreWriter = stats.StoreWriter
	// StoreReader scans a columnar result store file sequentially.
	StoreReader = stats.StoreReader
)

// NewSketch returns an empty quantile sketch with default accuracy
// (relative error 0.5%, 512 centroids).
func NewSketch() *Sketch { return stats.NewSketch() }

// NewSketchWith returns an empty sketch with explicit relative accuracy
// alpha in (0, 1) and centroid bound maxCentroids >= 8.
func NewSketchWith(alpha float64, maxCentroids int) (*Sketch, error) {
	return stats.NewSketchWith(alpha, maxCentroids)
}

// SketchFromSnapshot reconstructs a mergeable sketch from its snapshot.
func SketchFromSnapshot(snap SketchSnapshot) (*Sketch, error) {
	return stats.SketchFromSnapshot(snap)
}

// CreateResultStore creates a columnar result store at path (failing if
// it exists); feed it per-record rows from a MonteCarlo collect callback.
func CreateResultStore(path string, meta map[string]string) (*StoreWriter, error) {
	return stats.CreateStore(path, meta)
}

// OpenResultStore opens a result store for sequential scanning.
func OpenResultStore(path string) (*StoreReader, error) { return stats.OpenStore(path) }

// OpenCellJournal opens (resume=true) or creates (resume=false) the cell
// journal at path for use as a Protocol.Checkpoint. On resume, feed the
// already-completed cells to your collector with Replay before starting
// the run.
func OpenCellJournal(path string, resume bool) (*CellJournal, error) {
	return sim.OpenCellJournal(path, resume)
}

// Observability types, re-exported from the metrics layer.
type (
	// Metrics is a registry of atomic counters, gauges and histograms;
	// attach one via Protocol.Metrics, ExperimentConfig.Metrics or
	// WithMetrics. A nil *Metrics disables instrumentation at near-zero
	// cost.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, renderable
	// as result tables and marshalable to JSON.
	MetricsSnapshot = obs.Snapshot
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// NewSummary creates a Monte-Carlo aggregator; pass its Collect method to
// MonteCarlo. checkpoints may be nil to skip benefit curves.
func NewSummary(checkpoints []int) *Summary { return sim.NewSummary(checkpoints) }

// MonteCarlo executes a Monte-Carlo protocol over a worker pool, invoking
// collect serially for every (policy, network, run) cell. Work is
// scheduled at (network, run) cell granularity — network instances are
// generated once and shared — so even a Networks=1 grid parallelizes
// across its runs, and the record stream is identical for every
// Protocol.Workers setting.
func MonteCarlo(ctx context.Context, p Protocol, factories []PolicyFactory, collect func(Record)) error {
	return sim.Run(ctx, p, factories, collect)
}

// DefaultFactories returns the §IV policy roster (ABM + baselines).
// opts (e.g. WithMetrics) are applied to the ABM policy.
func DefaultFactories(w Weights, opts ...core.Option) ([]PolicyFactory, error) {
	return sim.DefaultFactories(w, opts...)
}

// Experiment harness types.
type (
	// ExperimentConfig scales the experiment protocol.
	ExperimentConfig = exp.Config
	// Report is the rendered output of one experiment.
	Report = exp.Report
)

// QuickConfig returns an experiment configuration sized for interactive
// use; PaperConfig returns the full §IV protocol.
func QuickConfig() ExperimentConfig { return exp.QuickConfig() }

// PaperConfig returns the full-scale §IV experiment protocol.
func PaperConfig() ExperimentConfig { return exp.PaperConfig() }

// Experiments lists the available experiment ids (one per paper table and
// figure).
func Experiments() []string { return exp.IDs() }

// RunExperiment executes the experiment with the given id. When
// cfg.Metrics is set, the report embeds a metrics snapshot taken after
// the run (Report.Metrics).
func RunExperiment(ctx context.Context, id string, cfg ExperimentConfig) (*Report, error) {
	runner, ok := exp.Registry()[id]
	if !ok {
		return nil, fmt.Errorf("accu: unknown experiment %q (have %v)", id, exp.IDs())
	}
	rep, err := runner(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rep.MetricsSnapshot = cfg.Metrics.Snapshot()
	return rep, nil
}

// Theory helpers (exhaustive; tiny instances only).

// AdaptiveSubmodularRatio computes λ (Definition 5) by enumeration.
func AdaptiveSubmodularRatio(inst *Instance) (float64, error) {
	return theory.AdaptiveSubmodularRatio(inst)
}

// OptimalValue computes the optimal adaptive policy value by brute force.
func OptimalValue(inst *Instance, k int) (float64, error) { return theory.OptimalValue(inst, k) }

// GreedyValue computes the exact w_I=0 adaptive greedy value.
func GreedyValue(inst *Instance, k int) (float64, error) { return theory.GreedyValue(inst, k) }

// TheoremBound returns the Theorem 1 guarantee 1 − e^{−λ}.
func TheoremBound(lambda float64) float64 { return theory.Bound(lambda) }

// CurvatureDelta computes δ = max QHigh/QLow over cautious users under
// the generalized §III-B acceptance model (+Inf for the deterministic
// model).
func CurvatureDelta(inst *Instance) float64 { return theory.CurvatureDelta(inst) }

// CurvatureBound returns the §III-B curvature guarantee
// 1 − (1 − 1/(δk))^k, which collapses to 0 as δ → ∞.
func CurvatureBound(delta float64, k int) float64 { return theory.CurvatureBound(delta, k) }

// RunBatched executes a parallel-batching attack (paper reference [4]):
// requests go out batchSize at a time with no observations inside a
// batch. All shipped policies implement BatchSelector.
func RunBatched(p BatchSelector, re *Realization, k, batchSize int) (*Result, error) {
	return core.RunBatched(p, re, k, batchSize)
}

// BatchSelector is a policy that can propose several distinct targets
// without intermediate observations.
type BatchSelector = core.BatchSelector

// Collaborative multi-bot attack (paper reference [5]).
type (
	// MultiState is the shared-observation, per-bot-friendship attack
	// state of the collaborative multi-socialbot model.
	MultiState = osn.MultiState
	// MultiResult is the trace of a collaborative attack.
	MultiResult = core.MultiResult
	// MultiStep records one request of a collaborative attack.
	MultiStep = core.MultiStep
)

// NewMultiAttack starts a collaborative attack with the given number of
// bots against one realization.
func NewMultiAttack(re *Realization, bots int) (*MultiState, error) {
	return osn.NewMultiState(re, bots)
}

// RunMulti executes the collaborative multi-bot greedy: bots share all
// observations and a single budget of k requests dispatched round-robin.
func RunMulti(re *Realization, bots, k int, w Weights) (*MultiResult, error) {
	return core.RunMulti(re, bots, k, w)
}

// Defense analysis (the paper's motivation: reveal the users to protect).
type (
	// VulnerabilityAnalysis aggregates per-user compromise statistics
	// across repeated simulated attacks.
	VulnerabilityAnalysis = defense.Analysis
	// UserVulnerability is one user's fate across those attacks.
	UserVulnerability = defense.UserStats
	// AttackerFactory builds a fresh attack policy per analysis run.
	AttackerFactory = defense.PolicyFactory
)

// ABMAttacker returns the default attacker (balanced-weight ABM) for
// vulnerability analyses.
func ABMAttacker() AttackerFactory { return defense.ABMAttacker() }

// AnalyzeVulnerability measures per-user compromise/exposure rates under
// `runs` simulated attacks of budget k.
func AnalyzeVulnerability(ctx context.Context, inst *Instance, attacker AttackerFactory, runs, k int, seed Seed) (*VulnerabilityAnalysis, error) {
	return defense.Analyze(ctx, inst, attacker, runs, k, seed)
}

// Harden converts the given users to cautious acceptance with
// θ = max(1, round(fraction·deg)) and returns the hardened instance.
func Harden(inst *Instance, users []int, fraction float64) (*Instance, error) {
	return defense.Harden(inst, users, fraction)
}
