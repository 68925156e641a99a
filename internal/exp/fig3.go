package exp

import (
	"context"
	"fmt"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

// Fig3 reproduces Fig. 3: the average marginal benefit of each friend
// request under ABM, broken down into gains from cautious-targeted and
// reckless-targeted requests. Request indices are bucketed to ten groups
// (the paper plots per-request curves; buckets keep the table readable
// while preserving the shape — the cautious-gain concentration region).
func Fig3(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	abm, err := sim.ABMFactory(cfg.Weights)
	if err != nil {
		return nil, err
	}
	cps := checkpoints(cfg.K)
	xs := make([]float64, len(cps))
	for i, c := range cps {
		xs[i] = float64(c)
	}

	var tables []stats.Table
	var notes []string
	for _, name := range cfg.Datasets {
		g, _, err := cfg.generator(name)
		if err != nil {
			return nil, err
		}
		total := stats.NewSeries("avg-gain", xs)
		cautious := stats.NewSeries("from-cautious", xs)
		reckless := stats.NewSeries("from-reckless", xs)
		protocol := cfg.protocol(g, cfg.setup(), cfg.Seed.Split("fig3-"+name))
		err = cfg.run(ctx, "fig3-"+name, protocol, []sim.PolicyFactory{abm}, func(rec sim.Record) {
			buckets(cps, rec.Result.Steps, func(i int, bucket []core.Step) {
				var sumT, sumC, sumR float64
				for _, step := range bucket {
					sumT += step.Gain
					if step.Cautious {
						sumC += step.Gain
					} else {
						sumR += step.Gain
					}
				}
				n := float64(len(bucket))
				total.Add(i, sumT/n)
				cautious.Add(i, sumC/n)
				reckless.Add(i, sumR/n)
			})
		})
		if err != nil {
			return nil, fmt.Errorf("exp: fig3 %s: %w", name, err)
		}
		tab, err := stats.SeriesTable(name, "k", []*stats.Series{total, cautious, reckless})
		if err != nil {
			return nil, fmt.Errorf("exp: fig3 %s: %w", name, err)
		}
		tables = append(tables, tab)

		// Shape note: does a later bucket beat an earlier one (the
		// non-concave segment caused by courting cautious users)?
		means := total.Means()
		for i := 1; i < len(means)-1; i++ {
			if means[i] > 0 && means[i+1] > means[i]*1.05 {
				notes = append(notes, fmt.Sprintf("%s: marginal gain rises again after bucket %d (non-concave segment)", name, i+1))
				break
			}
		}
	}
	return newReport("fig3", "Average marginal benefit per request, cautious vs reckless", tables, notes), nil
}
