package main

import (
	"fmt"
	"sort"
)

// entry is the real entry point a workload drives.
type entry int

const (
	// entryServ submits the grid as one accuserv job over HTTP.
	entryServ entry = iota
	// entryDist runs a loopback accudist coordinator and two workers.
	entryDist
	// entryLocal resumes a pre-filled accurun checkpoint.
	entryLocal
)

// spec is the grid a workload hands its entry point. Its JSON form is the
// accuserv job spec and the accudist -spec file; cautious users take the
// programs' common default of 10.
type spec struct {
	Preset   string       `json:"preset"`
	Scale    float64      `json:"scale"`
	Policies []policySpec `json:"policies"`
	Networks int          `json:"networks"`
	Runs     int          `json:"runs"`
	K        int          `json:"k"`
	Seed     uint64       `json:"seed"`
	Workers  int          `json:"workers,omitempty"`
}

// policySpec names one policy of the roster.
type policySpec struct {
	Name string `json:"name"`
}

// cells is the (network, run) cell count of the grid.
func (s spec) cells() int { return s.Networks * s.Runs }

// records is the record count of the grid: one per cell and policy.
func (s spec) records() int { return s.cells() * len(s.Policies) }

// workload is one set of inputs the benchmark runs. The seed is filled in
// per invocation; the programs under test receive only the spec.
type workload struct {
	name  string
	entry entry
	grid  spec
	// prefill is, for entryLocal, the number of runs journaled by a
	// plain accurun before each round; the round resumes from them and
	// computes the rest of grid.Runs.
	prefill int
}

func roster(names ...string) []policySpec {
	out := make([]policySpec, len(names))
	for i, n := range names {
		out[i] = policySpec{Name: n}
	}
	return out
}

// workloads are sized so one round takes 3–5 s on a 2-vCPU machine and
// every round uses exactly engineThreads engine threads. Why each exists
// is in bench/README.md and BENCHMARK.json.
var workloads = []workload{
	{
		// The paper's Fig. 2 comparison; ABM Observe dominates. Many runs
		// per network: generation is amortised, work is shared.
		name:  "fig2-serv",
		entry: entryServ,
		grid: spec{Preset: "slashdot", Scale: 0.05, Policies: roster("abm", "maxdegree", "pagerank", "random"),
			Networks: 12, Runs: 12, K: 50, Workers: engineThreads},
	},
	{
		// Generation-bound: each network serves only two runs.
		name:  "wide-dist",
		entry: entryDist,
		grid: spec{Preset: "twitter", Scale: 0.1, Policies: roster("maxdegree", "random"),
			Networks: 64, Runs: 2, K: 30, Workers: 1},
	},
	{
		// Write-heavy: cheap cells, each uploaded and fsynced alone.
		name:  "durable-dist",
		entry: entryDist,
		grid: spec{Preset: "slashdot", Scale: 0.02, Policies: roster("random", "maxdegree"),
			Networks: 4, Runs: 400, K: 200, Workers: 1},
	},
	{
		// The journal read path: load and replay half the grid, then
		// compute and append the other half with a result store.
		name:  "resume-local",
		entry: entryLocal,
		grid: spec{Preset: "slashdot", Scale: 0.02, Policies: roster("random"),
			Networks: 1, Runs: 8000, K: 100, Workers: engineThreads},
		prefill: 4000,
	},
}

func (s suite) workload(name string) (workload, bool) {
	for _, w := range s.workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (s suite) names() []string {
	names := make([]string, len(s.workloads))
	for i, w := range s.workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}

// newCells is the number of cells one round makes durable.
func (w workload) newCells() int {
	if w.entry == entryLocal {
		return w.grid.cells() - w.prefill
	}
	return w.grid.cells()
}

func (e entry) String() string {
	switch e {
	case entryServ:
		return "accuserv"
	case entryDist:
		return "accudist"
	case entryLocal:
		return "accurun"
	}
	return fmt.Sprintf("entry(%d)", int(e))
}
