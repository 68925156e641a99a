package exp

import (
	"context"
	"fmt"

	"github.com/accu-sim/accu/internal/stats"
)

// Sensitivity grids of Fig. 6/7: cautious friend benefit × acceptance
// threshold fraction.
var (
	heatBenefits = []float64{20, 40, 60, 80, 100}
	heatThetas   = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
)

// heatmap runs the Fig. 6/7 sweep (one ABM grid heat-<dataset>-<θ>-<Bf>
// per cell) and returns ABM's benefit and cautious-friend grids.
func heatmap(ctx context.Context, cfg Config) (benefit, cautious *stats.Grid, dataset string, err error) {
	cfg, err = cfg.normalize()
	if err != nil {
		return nil, nil, "", err
	}
	dataset, g, err := cfg.sweepDataset()
	if err != nil {
		return nil, nil, "", err
	}
	benefit = stats.NewGrid("theta", heatThetas, "Bf(c)", heatBenefits)
	cautious = stats.NewGrid("theta", heatThetas, "Bf(c)", heatBenefits)
	for i, tf := range heatThetas {
		for j, bf := range heatBenefits {
			if err := ctx.Err(); err != nil {
				return nil, nil, "", err
			}
			setup := cfg.setup()
			setup.ThetaFraction = tf
			setup.BFriendCautious = bf
			name := fmt.Sprintf("heat-%s-%v-%v", dataset, tf, bf)
			b, c, err := cfg.abmCell(ctx, name, cfg.protocol(g, setup, cfg.Seed.Split(name)))
			if err != nil {
				return nil, nil, "", fmt.Errorf("exp: heatmap cell (θ=%v, Bf=%v): %w", tf, bf, err)
			}
			*benefit.At(i, j), *cautious.At(i, j) = *b, *c
		}
	}
	return benefit, cautious, dataset, nil
}

// heatNotes derives the qualitative observations the paper reports on the
// sensitivity grids.
func heatNotes(grid *stats.Grid, dataset, what string) []string {
	rows, cols := grid.Rows(), grid.Cols()
	// Corner comparison: easiest corner (low θ, high Bf) vs hardest.
	easy := grid.At(0, len(cols)-1).Mean()
	hard := grid.At(len(rows)-1, 0).Mean()
	notes := []string{fmt.Sprintf("%s: %s easiest corner %.1f vs hardest corner %.1f", dataset, what, easy, hard)}
	// The paper's exception: at the lowest cautious benefit, increasing
	// θ can help total benefit.
	lowCol := 0
	first, last := grid.At(0, lowCol).Mean(), grid.At(len(rows)-1, lowCol).Mean()
	if last > first {
		notes = append(notes, fmt.Sprintf("%s: at Bf(c)=%.0f, raising θ increases %s (%.1f → %.1f) — the paper's exception", dataset, cols[lowCol], what, first, last))
	}
	return notes
}

// Fig6 reproduces Fig. 6: the total-benefit heat map over cautious-user
// benefit and threshold fraction.
func Fig6(ctx context.Context, cfg Config) (*Report, error) {
	grid, _, dataset, err := heatmap(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tables := []stats.Table{stats.GridTable(dataset, grid)}
	return newReport("fig6", fmt.Sprintf("Benefit heat map: θ fraction × B_f(cautious) (%s)", dataset), tables, heatNotes(grid, dataset, "benefit")), nil
}

// Fig7 reproduces Fig. 7: the cautious-friend-count heat map over the
// same grid.
func Fig7(ctx context.Context, cfg Config) (*Report, error) {
	_, grid, dataset, err := heatmap(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tables := []stats.Table{stats.GridTable(dataset, grid)}
	return newReport("fig7", fmt.Sprintf("Cautious-friends heat map: θ fraction × B_f(cautious) (%s)", dataset), tables, heatNotes(grid, dataset, "cautious friends")), nil
}
