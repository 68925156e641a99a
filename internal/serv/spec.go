package serv

import (
	"fmt"
	"math"
	"regexp"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/sim"
)

// PolicySpec names one policy of the roster. WD/WI apply to "abm" only
// (0/0 means the paper's balanced default weights).
//
//accu:wire
type PolicySpec struct {
	// Name is one of abm, greedy, maxdegree, pagerank, random.
	Name string  `json:"name"`
	WD   float64 `json:"wd,omitempty"`
	WI   float64 `json:"wi,omitempty"`
}

// Spec is the serializable description of one Monte-Carlo protocol: the
// accuserv submission payload, the accudist -spec file, and what accurun
// assembles from its flags. Build is the only path from it to a
// sim.Protocol and policy roster, including the root-seed derivation
// NewSeed(seed, 2·seed+1), so a job's record digest matches a local
// `accurun -runs N -digest` of the same parameters bit for bit.
//
//accu:wire
type Spec struct {
	// Preset is the dataset stand-in ("facebook", "slashdot", "twitter",
	// "dblp"); Scale shrinks it (0 defaults to 0.02).
	Preset string  `json:"preset"`
	Scale  float64 `json:"scale,omitempty"`
	// Cautious is the number of cautious users per network; nil defaults
	// to 10, matching accurun's -cautious default.
	Cautious *int `json:"cautious,omitempty"`

	// Policies is the roster to compare; every cell runs all of them
	// against the same realization.
	Policies []PolicySpec `json:"policies"`

	// Networks × Runs is the Monte-Carlo grid; K the request budget.
	Networks int `json:"networks"`
	Runs     int `json:"runs"`
	K        int `json:"k"`
	// BatchSize > 1 switches to the parallel-batching attack model.
	BatchSize int `json:"batchSize,omitempty"`

	// Seed feeds the deterministic root seed NewSeed(seed, 2·seed+1).
	Seed uint64 `json:"seed"`

	// Workers bounds the job's engine worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// Fault-tolerance knobs, forwarded to sim.Protocol.
	CellTimeoutMS   int  `json:"cellTimeoutMs,omitempty"`
	Retries         int  `json:"retries,omitempty"`
	ContinueOnError bool `json:"continueOnError,omitempty"`
	MaxFailures     int  `json:"maxFailures,omitempty"`
}

// defaultScale matches accurun's -scale default.
const defaultScale = 0.02

// defaultCautious matches accurun's -cautious default.
const defaultCautious = 10

// scale returns the effective scale factor.
func (s Spec) scale() float64 {
	if s.Scale == 0 {
		return defaultScale
	}
	return s.Scale
}

// cautious returns the effective cautious-user count.
func (s Spec) cautious() int {
	if s.Cautious == nil {
		return defaultCautious
	}
	return *s.Cautious
}

// maxCellTimeoutMS is the largest CellTimeoutMS whose conversion to a
// time.Duration does not overflow int64 nanoseconds.
const maxCellTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// cellTimeout converts CellTimeoutMS to the protocol's per-cell timeout,
// rejecting values the conversion would overflow (a wrapped product can
// land on a tiny positive timeout that fails every cell).
func (s Spec) cellTimeout() (time.Duration, error) {
	if ms := int64(s.CellTimeoutMS); ms < 0 || ms > maxCellTimeoutMS {
		return 0, fmt.Errorf("serv: cellTimeoutMs %d not in [0, %d]", s.CellTimeoutMS, maxCellTimeoutMS)
	}
	return time.Duration(s.CellTimeoutMS) * time.Millisecond, nil
}

// Cells returns the record-grid size Networks × Runs × policies.
func (s Spec) Cells() int64 {
	return int64(s.Networks) * int64(s.Runs) * int64(len(s.Policies))
}

// Validate checks the spec without building anything expensive: preset
// and policy names resolve, weights validate, and the grid dimensions
// satisfy sim.Protocol.Validate. It is the submission-time gate, so a
// queued job cannot fail on a typo hours later.
func (s Spec) Validate() error {
	if _, err := gen.PresetByName(s.Preset); err != nil {
		return err
	}
	if sc := s.scale(); sc <= 0 || sc > 1 {
		return fmt.Errorf("serv: scale %v not in (0, 1]", sc)
	}
	if s.cautious() < 0 {
		return fmt.Errorf("serv: cautious %d must be >= 0", s.cautious())
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("serv: no policies")
	}
	seen := make(map[string]bool, len(s.Policies))
	for _, ps := range s.Policies {
		if seen[ps.Name] {
			return fmt.Errorf("serv: duplicate policy %q", ps.Name)
		}
		seen[ps.Name] = true
		if _, err := ps.Factory(nil); err != nil {
			return err
		}
	}
	cellTimeout, err := s.cellTimeout()
	if err != nil {
		return err
	}
	p := sim.Protocol{
		Gen:         probeGen{},
		Setup:       osn.DefaultSetup(),
		Networks:    s.Networks,
		Runs:        s.Runs,
		K:           s.K,
		BatchSize:   s.BatchSize,
		Workers:     s.Workers,
		MaxFailures: s.MaxFailures,
		CellTimeout: cellTimeout,
		Retries:     s.Retries,
	}
	return p.Validate()
}

// probeGen satisfies gen.Generator so Spec.Validate can reuse the
// engine's own protocol validation without building a real generator; it
// must never actually run.
type probeGen struct{}

func (probeGen) Generate(rng.Seed) (*graph.Graph, error) {
	return nil, fmt.Errorf("serv: probe generator must not run")
}

func (probeGen) Name() string { return "probe" }

// Build materializes the spec into a runnable protocol and policy roster.
// reg becomes the job-scoped metrics registry (engine instrumentation and
// ABM work counters); nil disables instrumentation.
func (s Spec) Build(reg *obs.Registry) (sim.Protocol, []sim.PolicyFactory, error) {
	preset, err := gen.PresetByName(s.Preset)
	if err != nil {
		return sim.Protocol{}, nil, err
	}
	generator, err := preset.Generator(s.scale())
	if err != nil {
		return sim.Protocol{}, nil, err
	}
	cellTimeout, err := s.cellTimeout()
	if err != nil {
		return sim.Protocol{}, nil, err
	}
	setup := osn.DefaultSetup()
	setup.NumCautious = s.cautious()
	factories := make([]sim.PolicyFactory, 0, len(s.Policies))
	for _, ps := range s.Policies {
		f, err := ps.Factory(reg)
		if err != nil {
			return sim.Protocol{}, nil, err
		}
		factories = append(factories, f)
	}
	seed := rng.NewSeed(s.Seed, s.Seed*2+1)
	p := sim.Protocol{
		Gen:             generator,
		Setup:           setup,
		Networks:        s.Networks,
		Runs:            s.Runs,
		K:               s.K,
		BatchSize:       s.BatchSize,
		Seed:            seed,
		Workers:         s.Workers,
		Metrics:         reg,
		ContinueOnError: s.ContinueOnError,
		MaxFailures:     s.MaxFailures,
		CellTimeout:     cellTimeout,
		Retries:         s.Retries,
	}
	return p, factories, nil
}

// Factory builds the engine factory for one policy spec. It is the only
// policy-name lookup: accurun, accuserv and accudist all reach the roster
// through it, so their record digests agree by construction. reg receives
// ABM's work counters (nil disables).
func (ps PolicySpec) Factory(reg *obs.Registry) (sim.PolicyFactory, error) {
	switch ps.Name {
	case "abm":
		w := core.Weights{WD: ps.WD, WI: ps.WI}
		if ps.WD == 0 && ps.WI == 0 {
			w = core.DefaultWeights()
		}
		if err := w.Validate(); err != nil {
			return sim.PolicyFactory{}, err
		}
		return sim.PolicyFactory{Name: "abm", New: func(rng.Seed) (core.Policy, error) {
			return core.NewABM(w, core.WithMetrics(reg))
		}}, nil
	case "greedy":
		return sim.PolicyFactory{Name: "greedy", New: func(rng.Seed) (core.Policy, error) {
			return core.NewPureGreedy(), nil
		}}, nil
	case "maxdegree":
		return sim.PolicyFactory{Name: "maxdegree", New: func(rng.Seed) (core.Policy, error) {
			return core.NewMaxDegree(), nil
		}}, nil
	case "pagerank":
		return sim.PolicyFactory{Name: "pagerank", New: func(rng.Seed) (core.Policy, error) {
			return core.NewPageRank(), nil
		}}, nil
	case "random":
		return sim.PolicyFactory{Name: "random", New: func(s rng.Seed) (core.Policy, error) {
			return core.NewRandom(s), nil
		}}, nil
	default:
		return sim.PolicyFactory{}, fmt.Errorf("serv: unknown policy %q (want abm|greedy|maxdegree|pagerank|random)", ps.Name)
	}
}

// jobIDPattern constrains job identifiers: metric-name-safe lowercase
// segments, so per-job registries prefix cleanly into /metrics names
// ("job.<id>.sim.cells" must satisfy obs.NamePattern).
var jobIDPattern = regexp.MustCompile(`^[a-z0-9_]{1,64}$`)

// ValidJobID reports whether a client-supplied job ID is acceptable.
func ValidJobID(id string) bool { return jobIDPattern.MatchString(id) }
