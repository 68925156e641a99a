package exp

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/stats"
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
	// A dataset is named by its preset key, which grid names and journal
	// file names are built from; the caller's slice is left as it was.
	c.Datasets = []string{"SlashDot", "dblp"}
	if n, err = c.normalize(); err != nil || n.Datasets[0] != "slashdot" || c.Datasets[0] != "SlashDot" {
		t.Errorf("normalize(%v) = %v, %v; want preset keys in a new slice", c.Datasets, n.Datasets, err)
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
		func(c *Config) { c.Datasets = []string{"slashdot", "nope"} },
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
	// The Fig. 4 claims read Fig. 4's own grid: the pure greedy's benefit
	// in the evidence is the w_I = 0 row of the Fig. 4 table.
	fig4, err := Fig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pure := strings.Fields(fig4.Tables[0].Rows[0][1])[0]
	if got := rep.Tables[0].Rows[3][3]; !strings.HasPrefix(got, "pure "+pure+" ") {
		t.Errorf("indirect-term-helps evidence %q does not read Fig. 4's w_I = 0 benefit %s", got, pure)
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

// TestIndirectTermHelpsNeedsStrictGain is the regression test for a check
// that could not fail: the best weighted benefit started at the pure
// greedy's, so "best >= pure" held on every sweep.
func TestIndirectTermHelpsNeedsStrictGain(t *testing.T) {
	sweep := func(weighted float64) *stats.Series {
		s := stats.NewSeries("benefit", fig45Weights)
		s.Add(0, 100)
		for i := 1; i < len(fig45Weights); i++ {
			s.Add(i, weighted)
		}
		return s
	}
	for weighted, want := range map[float64]bool{90: false, 100: false, 100.5: true} {
		if ok, text := indirectTermHelps(sweep(weighted)); ok != want {
			t.Errorf("weighted %v vs pure 100: holds = %v (%s), want %v", weighted, ok, text, want)
		}
	}
}

// TestClaimsCellCount pins what the checklist simulates: Fig. 2's four
// policies per dataset, Fig. 4's seven w_I points and the θ pair, each
// grid once — N·R·(4D + 9) records.
func TestClaimsCellCount(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 10
	cfg.Datasets = []string{"slashdot", "dblp"}
	cfg.Metrics = obs.New()
	if _, err := Claims(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Networks * cfg.Runs * (4*len(cfg.Datasets) + 9))
	if got := cfg.Metrics.Counter("sim.cells").Value(); got != want {
		t.Errorf("sim.cells = %d, want %d", got, want)
	}
}

// TestRunAllCellCount pins what one Run over every experiment simulates:
// each grid once, N·R·(5D + 47) records, where running the experiments
// one by one simulates N·R·(9D + 79). Claims reads Fig. 2's and Fig. 4's
// grids and Fig. 7 reads Fig. 6's sweep, so those reports count no cell
// of their own; each grid has one journal, CheckpointDir/<grid>.jsonl,
// 2D + 39 in all; and every report is the one its experiment renders
// when run alone.
func TestRunAllCellCount(t *testing.T) {
	cfg := tinyConfig()
	cfg.K = 10
	cfg.Datasets = []string{"slashdot", "dblp"}
	cfg.Metrics = obs.New()
	cfg.CheckpointDir = t.TempDir()
	d := len(cfg.Datasets)
	alone := cfg
	alone.Metrics, alone.CheckpointDir = nil, ""
	cells := map[string]int64{}
	var total int64
	err := Run(context.Background(), IDs(), cfg, func(rep *Report) {
		for _, c := range rep.Metrics().Counters {
			if c.Name == "sim.cells" {
				cells[rep.ID] = c.Value
				total += c.Value
			}
		}
		own, err := Registry()[rep.ID](context.Background(), alone)
		if err != nil {
			t.Fatal(err)
		}
		if own.String() != rep.String() {
			t.Errorf("%s in Run differs from %s alone:\n%s\n%s", rep.ID, rep.ID, rep, own)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.Networks * cfg.Runs * (5*d + 47)); total != want {
		t.Errorf("Run(all) simulated %d records (%v), want %d", total, cells, want)
	}
	for _, id := range []string{"fig2", "fig4", "fig7"} {
		if cells[id] != 0 {
			t.Errorf("%s simulated %d records; its grids were run earlier in the same Run", id, cells[id])
		}
	}
	entries, err := os.ReadDir(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	journal := regexp.MustCompile(`^[a-z0-9.-]+\.jsonl$`)
	for _, e := range entries {
		if e.IsDir() || !journal.MatchString(e.Name()) {
			t.Errorf("checkpoint entry %q is not a grid journal", e.Name())
		}
	}
	if len(entries) != 2*d+39 {
		t.Errorf("%d checkpoint entries, want %d", len(entries), 2*d+39)
	}
}

func TestRunRejectsUnknownAndRepeatedIDs(t *testing.T) {
	emit := func(*Report) { t.Error("an experiment ran") }
	for _, ids := range [][]string{{"thm1", "nope"}, {"thm1", "thm1"}} {
		if err := Run(context.Background(), ids, tinyConfig(), emit); err == nil {
			t.Errorf("Run(%v): want error", ids)
		}
	}
}
