package exp

import (
	"context"
	"fmt"
	"slices"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

// fig45Weights is the w_I grid of Fig. 4/5 (w_D = 1 − w_I).
var fig45Weights = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}

// sweepDataset picks the dataset of the single-dataset experiments
// (Figs. 4–7, the extensions and the claims' θ pair) and returns it with
// its generator: the paper uses Twitter; fall back to the first
// configured dataset if Twitter is not in the roster.
func (c Config) sweepDataset() (string, gen.Generator, error) {
	dataset := c.Datasets[0]
	if slices.Contains(c.Datasets, "twitter") {
		dataset = "twitter"
	}
	g, _, err := c.generator(dataset)
	return dataset, g, err
}

// fig4Data runs the Fig. 4 sweep (grid fig4-<dataset>): one ABM per
// fig45Weights point, w_D = 1 − w_I. It returns the dataset and ABM's
// benefit and cautious-friend series over the sweep, which Fig. 4
// tabulates and the claims checklist reads.
func fig4Data(ctx context.Context, cfg Config) (dataset string, benefit, cautious *stats.Series, err error) {
	dataset, g, err := cfg.sweepDataset()
	if err != nil {
		return "", nil, nil, err
	}
	xs := fig45Weights
	benefit = stats.NewSeries("benefit", xs)
	cautious = stats.NewSeries("cautious-friends", xs)
	factories := make([]sim.PolicyFactory, 0, len(xs))
	for _, wi := range xs {
		f, err := sim.ABMFactory(core.Weights{WD: 1 - wi, WI: wi})
		if err != nil {
			return "", nil, nil, err
		}
		f.Name = fmt.Sprintf("wI=%.1f", wi)
		factories = append(factories, f)
	}
	name := "fig4-" + dataset
	sum, err := cfg.summary(ctx, name, cfg.protocol(g, cfg.setup(), cfg.Seed.Split(name)), factories, nil)
	if err != nil {
		return "", nil, nil, fmt.Errorf("exp: fig4 %s: %w", dataset, err)
	}
	for i, f := range factories {
		*benefit.At(i), *cautious.At(i) = *sum.FinalBenefit(f.Name), *sum.CautiousFriends(f.Name)
	}
	return dataset, benefit, cautious, nil
}

// Fig4 reproduces Fig. 4: total benefit and number of cautious friends
// after k requests on Twitter, varying w_I with w_D = 1 − w_I.
func Fig4(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	dataset, benefit, cautious, err := fig4Data(ctx, cfg)
	if err != nil {
		return nil, err
	}
	bm, cm := benefit.Means(), cautious.Means()
	monotone := true
	for i := 1; i < len(cm); i++ {
		monotone = monotone && cm[i] >= cm[i-1]-1e-9
	}
	notes := []string{
		fmt.Sprintf("%s: benefit peaks at wI=%.1f", dataset, fig45Weights[slices.Index(bm, slices.Max(bm))]),
		fmt.Sprintf("%s: cautious friends monotone in wI: %v", dataset, monotone),
	}

	tab, err := stats.SeriesTable(dataset, "wI", []*stats.Series{benefit, cautious})
	if err != nil {
		return nil, fmt.Errorf("exp: fig4 %s: %w", dataset, err)
	}
	tables := []stats.Table{tab}
	return newReport("fig4", fmt.Sprintf("Benefit and cautious friends vs w_I (%s)", dataset), tables, notes), nil
}

// Fig5 reproduces Fig. 5: the fraction of runs in which request index X
// targets a cautious user, for several w_I settings (bucketed in ten
// request-index groups).
func Fig5(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	dataset, g, err := cfg.sweepDataset()
	if err != nil {
		return nil, err
	}

	cps := checkpoints(cfg.K)
	xs := make([]float64, len(cps))
	for i, c := range cps {
		xs[i] = float64(c)
	}

	sweep := []float64{0.1, 0.3, 0.5}
	factories := make([]sim.PolicyFactory, 0, len(sweep))
	series := make(map[string]*stats.Series, len(sweep))
	ordered := make([]*stats.Series, 0, len(sweep))
	for _, wi := range sweep {
		f, err := sim.ABMFactory(core.Weights{WD: 1 - wi, WI: wi})
		if err != nil {
			return nil, err
		}
		f.Name = fmt.Sprintf("wI=%.1f", wi)
		factories = append(factories, f)
		s := stats.NewSeries(f.Name, xs)
		series[f.Name] = s
		ordered = append(ordered, s)
	}

	protocol := cfg.protocol(g, cfg.setup(), cfg.Seed.Split("fig5-"+dataset))
	err = cfg.run(ctx, "fig5-"+dataset, protocol, factories, func(rec sim.Record) {
		buckets(cps, rec.Result.Steps, func(i int, bucket []core.Step) {
			c := 0
			for _, step := range bucket {
				if step.Cautious {
					c++
				}
			}
			series[rec.Policy].Add(i, float64(c)/float64(len(bucket)))
		})
	})
	if err != nil {
		return nil, fmt.Errorf("exp: fig5 %s: %w", dataset, err)
	}

	// Shape note: higher w_I should front-load cautious requests — the
	// weighted mean request index of cautious fractions should not grow
	// with w_I.
	var notes []string
	center := func(s *stats.Series) float64 {
		var num, den float64
		for i := 0; i < s.Len(); i++ {
			m := s.At(i).Mean()
			num += m * s.X(i)
			den += m
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	if lo, hi := center(ordered[0]), center(ordered[len(ordered)-1]); lo > 0 && hi > 0 {
		notes = append(notes, fmt.Sprintf("%s: cautious-request center shifts %.0f → %.0f as wI grows (earlier = smaller)", dataset, lo, hi))
	}

	tab, err := stats.SeriesTable(dataset+" fraction of requests sent to cautious users", "k", ordered)
	if err != nil {
		return nil, fmt.Errorf("exp: fig5 %s: %w", dataset, err)
	}
	tables := []stats.Table{tab}
	return newReport("fig5", fmt.Sprintf("Fraction of requests sent to cautious users (%s)", dataset), tables, notes), nil
}
