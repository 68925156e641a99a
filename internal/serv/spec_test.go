package serv

import (
	"math"
	"testing"
)

// TestSpecValidate pins the submission gate: every spec with a bad field
// is rejected, and every well-formed spec is accepted.
func TestSpecValidate(t *testing.T) {
	edit := func(f func(*Spec)) Spec {
		sp := testSpec()
		f(&sp)
		return sp
	}
	negative, zero := -1, 0
	bad := map[string]Spec{
		"unknown preset":    edit(func(sp *Spec) { sp.Preset = "nope" }),
		"NaN scale":         edit(func(sp *Spec) { sp.Scale = math.NaN() }),
		"negative scale":    edit(func(sp *Spec) { sp.Scale = -0.5 }),
		"scale above 1":     edit(func(sp *Spec) { sp.Scale = 1.5 }),
		"negative cautious": edit(func(sp *Spec) { sp.Cautious = &negative }),
		"no policies":       edit(func(sp *Spec) { sp.Policies = nil }),
		"unknown policy":    edit(func(sp *Spec) { sp.Policies = []PolicySpec{{Name: "oracle"}} }),
		"duplicate policy":  edit(func(sp *Spec) { sp.Policies = []PolicySpec{{Name: "random"}, {Name: "random"}} }),
		"duplicate abm":     edit(func(sp *Spec) { sp.Policies = []PolicySpec{{Name: "abm"}, {Name: "abm", WD: 1}} }),
		"negative weight":   edit(func(sp *Spec) { sp.Policies = []PolicySpec{{Name: "abm", WD: -1, WI: 0.5}} }),
		"zero networks":     edit(func(sp *Spec) { sp.Networks = 0 }),
		"zero runs":         edit(func(sp *Spec) { sp.Runs = 0 }),
		"zero k":            edit(func(sp *Spec) { sp.K = 0 }),
		"negative batch":    edit(func(sp *Spec) { sp.BatchSize = -1 }),
		"negative workers":  edit(func(sp *Spec) { sp.Workers = -1 }),
	}
	for name, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, sp)
		}
	}
	good := map[string]Spec{
		"test spec": testSpec(),
		"full roster": edit(func(sp *Spec) {
			sp.Policies = []PolicySpec{{Name: "abm"}, {Name: "greedy"}, {Name: "maxdegree"}, {Name: "pagerank"}, {Name: "random"}}
		}),
		"abm weights":      edit(func(sp *Spec) { sp.Policies = []PolicySpec{{Name: "abm", WD: 0, WI: 0.7}} }),
		"default scale":    edit(func(sp *Spec) { sp.Scale = 0 }),
		"scale 1":          edit(func(sp *Spec) { sp.Scale = 1 }),
		"default cautious": edit(func(sp *Spec) { sp.Cautious = nil }),
		"zero cautious":    edit(func(sp *Spec) { sp.Cautious = &zero }),
		"batched":          edit(func(sp *Spec) { sp.BatchSize = 5 }),
		"default workers":  edit(func(sp *Spec) { sp.Workers = 0 }),
	}
	for name, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: Validate rejected: %v", name, err)
		}
	}
}

// TestGreedyJobReportsABMCounters: greedy is ABM with w_I = 0, and the
// engine instruments every policy it builds, so a greedy job's registry
// holds the abm.* work counters just as an abm job's does.
func TestGreedyJobReportsABMCounters(t *testing.T) {
	spec := testSpec()
	spec.Policies = []PolicySpec{{Name: "greedy"}}
	s := newTestServer(t, Config{})
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{ID: "greedyjob", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone)
	snap, err := s.Metrics(job.ID)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	pops := int64(0)
	for _, c := range snap.Counters {
		if c.Name == "abm.heap_pops" {
			pops = c.Value
		}
	}
	if pops <= 0 {
		t.Errorf("greedy job abm.heap_pops = %d, want > 0; counters %+v", pops, snap.Counters)
	}
}
