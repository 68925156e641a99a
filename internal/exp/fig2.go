package exp

import (
	"context"
	"fmt"
	"strings"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

// checkpoints returns the request counts at which benefit is sampled —
// ten evenly spaced points up to k, matching the x-axis of Fig. 2.
func checkpoints(k int) []int {
	out := make([]int, min(k, 10))
	for i := range out {
		out[i] = (i + 1) * k / len(out)
	}
	return out
}

// buckets splits steps at the request counts cps (see checkpoints) and
// calls add with each non-empty bucket, in order.
func buckets(cps []int, steps []core.Step, add func(i int, bucket []core.Step)) {
	lo := 0
	for i, hi := range cps {
		if hi = min(hi, len(steps)); lo < hi {
			add(i, steps[lo:hi])
		}
		lo = hi
	}
}

// fig2Data runs the §IV roster on one dataset (grid fig2-<dataset>) and
// returns the roster, ABM first, with its summary: Fig. 2's benefit
// curves and the final benefits the claims checklist compares.
func fig2Data(ctx context.Context, cfg Config, dataset string) ([]sim.PolicyFactory, *sim.Summary, error) {
	factories, err := sim.DefaultFactories(cfg.Weights)
	if err != nil {
		return nil, nil, err
	}
	g, _, err := cfg.generator(dataset)
	if err != nil {
		return nil, nil, err
	}
	name := "fig2-" + dataset
	sum, err := cfg.summary(ctx, name, cfg.protocol(g, cfg.setup(), cfg.Seed.Split(name)), factories, checkpoints(cfg.K))
	if err != nil {
		return nil, nil, fmt.Errorf("exp: fig2 %s: %w", dataset, err)
	}
	return factories, sum, nil
}

// Fig2 reproduces Fig. 2: total benefit vs number of requests k for ABM,
// MaxDegree, PageRank and Random on every dataset.
func Fig2(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	var tables []stats.Table
	var notes []string
	for _, name := range cfg.Datasets {
		factories, sum, err := fig2Data(ctx, cfg, name)
		if err != nil {
			return nil, err
		}
		ordered := make([]*stats.Series, 0, len(factories))
		for _, f := range factories {
			if curve := sum.Curve(f.Name); curve != nil {
				ordered = append(ordered, curve)
			}
		}
		tab, err := stats.SeriesTable(name, "k", ordered)
		if err != nil {
			return nil, fmt.Errorf("exp: fig2 %s: %w", name, err)
		}
		tables = append(tables, tab)
		notes = append(notes, shapeNoteFig2(name, ordered)...)
	}
	return newReport("fig2", "Total benefit vs number of friend requests", tables, notes), nil
}

// shapeNoteFig2 summarizes who wins at the final checkpoint.
func shapeNoteFig2(dataset string, series []*stats.Series) []string {
	if len(series) == 0 || series[0].Len() == 0 {
		return nil
	}
	last := series[0].Len() - 1
	best, bestVal := "", -1.0
	var abmVal, randVal float64
	for _, s := range series {
		v := s.At(last).Mean()
		if v > bestVal {
			best, bestVal = s.Label, v
		}
		switch {
		case strings.HasPrefix(s.Label, "abm"):
			abmVal = v
		case s.Label == "random":
			randVal = v
		}
	}
	notes := []string{fmt.Sprintf("%s: best final policy = %s (%.1f)", dataset, best, bestVal)}
	if abmVal > 0 && randVal > 0 {
		notes = append(notes, fmt.Sprintf("%s: ABM/Random final ratio = %.2f", dataset, abmVal/randVal))
	}
	return notes
}
