package serv

import (
	"fmt"
	"regexp"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
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

// Cells returns the record-grid size Networks × Runs × policies.
func (s Spec) Cells() int64 {
	return int64(s.Networks) * int64(s.Runs) * int64(len(s.Policies))
}

// Validate checks the spec by building it: preset, scale and policy
// names resolve, weights validate, and the grid dimensions satisfy
// sim.Protocol.Validate. Build generates nothing, so this is cheap; it
// is the submission-time gate, so a queued job cannot fail on a typo
// hours later. Validate adds the three checks Build cannot make: an
// empty roster, a repeated policy name and a negative cautious count.
//
// Admission checks only the spec's shape. Whether a network has enough
// cautious-user candidates in its degree band depends on the generated
// graph, so a spec such as {preset: facebook, scale: 0.02, k: 5} is
// accepted and its job then fails, with the set-up error (the shortfall
// of candidates) as its error.
func (s Spec) Validate() error {
	p, _, err := s.Build(nil)
	if err != nil {
		return err
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
	}
	return p.Validate()
}

// Build materializes the spec into a runnable protocol and policy roster.
// reg becomes the protocol's Metrics, the job-scoped registry that the
// engine attaches to every instance and policy; nil disables
// instrumentation.
func (s Spec) Build(reg *obs.Registry) (sim.Protocol, []sim.PolicyFactory, error) {
	preset, err := gen.PresetByName(s.Preset)
	if err != nil {
		return sim.Protocol{}, nil, err
	}
	generator, err := preset.Generator(s.scale())
	if err != nil {
		return sim.Protocol{}, nil, err
	}
	setup := osn.DefaultSetup()
	setup.NumCautious = s.cautious()
	factories := make([]sim.PolicyFactory, 0, len(s.Policies))
	for _, ps := range s.Policies {
		f, err := ps.Factory()
		if err != nil {
			return sim.Protocol{}, nil, err
		}
		factories = append(factories, f)
	}
	seed := rng.NewSeed(s.Seed, s.Seed*2+1)
	p := sim.Protocol{
		Gen:       generator,
		Setup:     setup,
		Networks:  s.Networks,
		Runs:      s.Runs,
		K:         s.K,
		BatchSize: s.BatchSize,
		Seed:      seed,
		Workers:   s.Workers,
		Metrics:   reg,
	}
	return p, factories, nil
}

// Factory builds the engine factory for one policy spec. It is the only
// policy-name lookup: accurun, accuserv and accudist all reach the roster
// through it, so their record digests agree by construction. The
// factories themselves are sim's; only the record name "abm" is the
// spec's own.
func (ps PolicySpec) Factory() (sim.PolicyFactory, error) {
	var w core.Weights
	switch ps.Name {
	case "abm":
		w = core.Weights{WD: ps.WD, WI: ps.WI}
		if ps.WD == 0 && ps.WI == 0 {
			w = core.DefaultWeights()
		}
	case "greedy":
		w = core.Weights{WD: 1, WI: 0}
	default:
		for _, f := range sim.Baselines() {
			if f.Name == ps.Name {
				return f, nil
			}
		}
		return sim.PolicyFactory{}, fmt.Errorf("serv: unknown policy %q (want abm|greedy|maxdegree|pagerank|random)", ps.Name)
	}
	f, err := sim.ABMFactory(w)
	f.Name = ps.Name // records say "abm" whatever the weights
	return f, err
}

// jobIDPattern constrains job identifiers: metric-name-safe lowercase
// segments, so per-job registries prefix cleanly into /metrics names
// ("job.<id>.sim.cells" must satisfy obs.NamePattern).
var jobIDPattern = regexp.MustCompile(`^[a-z0-9_]{1,64}$`)

// ValidJobID reports whether a client-supplied job ID is acceptable.
func ValidJobID(id string) bool { return jobIDPattern.MatchString(id) }
