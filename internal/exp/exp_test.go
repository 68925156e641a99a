package exp

import (
	"context"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/rng"
)

// tinyConfig returns the smallest config that exercises the full
// pipeline quickly.
func tinyConfig() Config {
	return Config{
		Scale:       0.02,
		Networks:    1,
		Runs:        2,
		K:           30,
		NumCautious: 8,
		Datasets:    []string{"slashdot"},
		Seed:        rng.NewSeed(7, 8),
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := QuickConfig()
	n, err := c.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.K < 60 || n.NumCautious < 10 {
		t.Errorf("derived K=%d NumCautious=%d", n.K, n.NumCautious)
	}
	if len(n.Datasets) != 4 {
		t.Errorf("datasets = %v", n.Datasets)
	}
	if n.Weights != core.DefaultWeights() {
		t.Errorf("weights = %+v", n.Weights)
	}
}

func TestNormalizeValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 1.5 },
		func(c *Config) { c.Networks = 0 },
		func(c *Config) { c.Runs = 0 },
		func(c *Config) { c.K = -1 },
		func(c *Config) { c.NumCautious = -1 },
		func(c *Config) { c.Weights = core.Weights{WD: -1, WI: 1} },
	}
	for i, mutate := range cases {
		c := tinyConfig()
		mutate(&c)
		if _, err := c.normalize(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "thm1", "ext-soft", "ext-batch", "claims"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Errorf("registry size = %d, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Errorf("IDs() = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Error("IDs not sorted")
		}
	}
}

func TestCheckpoints(t *testing.T) {
	cps := checkpoints(100)
	if len(cps) != 10 || cps[0] != 10 || cps[9] != 100 {
		t.Errorf("checkpoints(100) = %v", cps)
	}
	cps = checkpoints(5)
	if len(cps) != 5 || cps[0] != 1 || cps[4] != 5 {
		t.Errorf("checkpoints(5) = %v", cps)
	}
}

func TestBenefitAt(t *testing.T) {
	res := &core.Result{Steps: []core.Step{
		{BenefitAfter: 1}, {BenefitAfter: 3}, {BenefitAfter: 3.5},
	}}
	if got := benefitAt(res, 2); got != 3 {
		t.Errorf("benefitAt(2) = %v", got)
	}
	if got := benefitAt(res, 10); got != 3.5 {
		t.Errorf("benefitAt(10) = %v (short trace holds final)", got)
	}
	if got := benefitAt(&core.Result{}, 1); got != 0 {
		t.Errorf("benefitAt(empty) = %v", got)
	}
}

func TestTable1(t *testing.T) {
	rep, err := Table1(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" {
		t.Errorf("id = %q", rep.ID)
	}
	for _, want := range []string{"slashdot", "Social", "77360", "905468"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
}

func TestFig2(t *testing.T) {
	rep, err := Fig2(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[slashdot]", "abm", "maxdegree", "pagerank", "random"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
	if len(rep.Notes) == 0 {
		t.Error("no shape notes")
	}
}

func TestFig3(t *testing.T) {
	rep, err := Fig3(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"avg-gain", "from-cautious", "from-reckless"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
}

func TestFig4(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 20
	rep, err := Fig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benefit", "cautious-friends", "0.6"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
	if len(rep.Notes) < 2 {
		t.Errorf("notes = %v", rep.Notes)
	}
}

func TestFig5(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 20
	rep, err := Fig5(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wI=0.1", "wI=0.5", "fraction"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
}

func TestFig6AndFig7(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 15
	cfg.Runs = 1
	rep6, err := Fig6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep6.Rendered, "theta \\ Bf(c)") {
		t.Errorf("fig6 rendered:\n%s", rep6.Rendered)
	}
	rep7, err := Fig7(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep7.ID != "fig7" || rep7.Rendered == "" {
		t.Error("fig7 empty")
	}
}

func TestTheorem1Experiment(t *testing.T) {
	rep, err := Theorem1(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Rendered, "threshold-2-star") {
		t.Errorf("rendered:\n%s", rep.Rendered)
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "VIOLATED") {
			t.Errorf("bound violated: %s", n)
		}
	}
	// The witness notes must be present.
	joined := strings.Join(rep.Notes, "\n")
	if !strings.Contains(joined, "Fig.1 witness") || !strings.Contains(joined, "curvature") {
		t.Errorf("notes = %v", rep.Notes)
	}
	// Every instance row must report holds=true.
	if strings.Contains(rep.Rendered, "false") {
		t.Errorf("some bound failed:\n%s", rep.Rendered)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Rendered: "body\n", Notes: []string{"note1"}}
	s := r.String()
	for _, want := range []string{"== x: T ==", "body", "note1"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

func TestExperimentContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig2(ctx, tinyConfig()); err == nil {
		t.Error("cancelled fig2: want error")
	}
	if _, err := Table1(ctx, tinyConfig()); err == nil {
		t.Error("cancelled table1: want error")
	}
	if _, err := Theorem1(ctx, tinyConfig()); err == nil {
		t.Error("cancelled thm1: want error")
	}
}

func TestExtSoft(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 15
	cfg.Runs = 1
	rep, err := ExtSoft(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"qLow", "delta", "curvature-bound", "inf"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
}

func TestExtBatch(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 15
	cfg.Runs = 1
	rep, err := ExtBatch(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batch", "vs-adaptive", "25"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing %q in:\n%s", want, rep.Rendered)
		}
	}
}

func TestClaims(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 20
	rep, err := Claims(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"abm-dominates", "random-worst", "theorem1-bound", "not-adaptive-submodular"} {
		if !strings.Contains(rep.Rendered, want) {
			t.Errorf("missing claim %q in:\n%s", want, rep.Rendered)
		}
	}
	// The structural (theory) claims must always hold.
	for _, row := range rep.Tables[0].Rows {
		switch row[0] {
		case "not-adaptive-submodular", "curvature-unbounded", "theorem1-bound":
			if row[2] != "true" {
				t.Errorf("structural claim %s failed: %v", row[0], row)
			}
		}
	}
}
