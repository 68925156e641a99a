package sim

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/stats"
)

// sketchJSON serializes a sketch snapshot for byte-level comparison.
func sketchJSON(t *testing.T, sk *stats.Sketch) string {
	t.Helper()
	b, err := json.Marshal(sk.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSummaryAggregates(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	sum := NewSummary([]int{5, 10, 15})
	if err := Run(context.Background(), p, factories, sum.Collect); err != nil {
		t.Fatal(err)
	}
	if len(sum.Policies()) != len(factories) {
		t.Fatalf("policies = %v", sum.Policies())
	}
	cells := int64(p.Networks * p.Runs)
	for _, name := range sum.Policies() {
		fb := sum.FinalBenefit(name)
		if fb.Count() != cells {
			t.Errorf("%s: count = %d, want %d", name, fb.Count(), cells)
		}
		if fb.Mean() <= 0 {
			t.Errorf("%s: mean benefit %v", name, fb.Mean())
		}
		if cf := sum.CautiousFriends(name); cf.Count() != cells {
			t.Errorf("%s: cautious count = %d", name, cf.Count())
		}
		curve := sum.Curve(name)
		if curve == nil || curve.Len() != 3 {
			t.Fatalf("%s: curve missing", name)
		}
		// Curves are monotone in k and end at the final benefit.
		means := curve.Means()
		for i := 1; i < len(means); i++ {
			if means[i]+1e-9 < means[i-1] {
				t.Errorf("%s: curve not monotone: %v", name, means)
			}
		}
		if means[len(means)-1] != fb.Mean() {
			t.Errorf("%s: final checkpoint %v != final benefit %v", name, means[len(means)-1], fb.Mean())
		}
	}
	for _, f := range factories {
		if sum.Curve(f.Name) == nil {
			t.Errorf("%s: no curve", f.Name)
		}
	}
}

// TestSummaryCheckpointZero is the regression test for the
// benefitAtStep panic: a checkpoint at request 0 used to index
// steps[-1] whenever the trace was non-empty. No requests have been
// sent at checkpoint 0, so it must read 0.
func TestSummaryCheckpointZero(t *testing.T) {
	sum := NewSummary([]int{0, 2})
	sum.Collect(Record{
		Policy: "abm",
		Result: &core.Result{
			Steps: []core.Step{
				{BenefitAfter: 1.5},
				{BenefitAfter: 3.0},
			},
			Benefit: 3.0,
		},
	})
	curve := sum.Curve("abm")
	if curve == nil || curve.Len() != 2 {
		t.Fatalf("curve = %v", curve)
	}
	means := curve.Means()
	if means[0] != 0 {
		t.Errorf("benefit at checkpoint 0 = %v, want 0", means[0])
	}
	if means[1] != 3.0 {
		t.Errorf("benefit at checkpoint 2 = %v, want 3", means[1])
	}

	// Direct unit coverage of the guard, including negative checkpoints
	// and short/empty traces.
	steps := []core.Step{{BenefitAfter: 2}, {BenefitAfter: 5}}
	for _, tc := range []struct {
		steps []core.Step
		c     int
		want  float64
	}{
		{steps, 0, 0},
		{steps, -1, 0},
		{steps, 1, 2},
		{steps, 2, 5},
		{steps, 99, 5},
		{nil, 0, 0},
		{nil, 3, 0},
	} {
		if got := benefitAtStep(tc.steps, tc.c); got != tc.want {
			t.Errorf("benefitAtStep(len %d, %d) = %v, want %v", len(tc.steps), tc.c, got, tc.want)
		}
	}
}

func TestSummaryWithoutCheckpoints(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	sum := NewSummary(nil)
	if err := Run(context.Background(), p, factories, sum.Collect); err != nil {
		t.Fatal(err)
	}
	for _, name := range sum.Policies() {
		if sum.Curve(name) != nil {
			t.Errorf("%s: unexpected curve", name)
		}
		if sum.FinalBenefit(name).Count() == 0 {
			t.Errorf("%s: no records", name)
		}
	}
	if sum.FinalBenefit("nope") != nil {
		t.Error("unknown policy should return nil")
	}
}
