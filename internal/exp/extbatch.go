package exp

import (
	"context"
	"fmt"

	"github.com/accu-sim/accu/internal/stats"
)

// batchSizes is the parallel-batching sweep of the ext-batch experiment.
var batchSizes = []int{1, 5, 10, 25}

// ExtBatch is an extension experiment beyond the paper's figures: it
// quantifies the cost of parallel batching (reference [4] of the paper) —
// sending requests in batches of b with no observations inside a batch —
// against the fully adaptive one-at-a-time attacker, on the same budget.
// The adaptivity gap is expected to widen with cautious users, because a
// batch cannot court a cautious user and then immediately exploit the
// unlocked threshold.
func ExtBatch(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	dataset, g, err := cfg.sweepDataset()
	if err != nil {
		return nil, err
	}

	header := []string{"batch", "benefit", "cautious-friends", "vs-adaptive"}
	var rows [][]string
	var adaptiveMean float64
	for _, b := range batchSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		protocol := cfg.protocol(g, cfg.setup(), cfg.Seed.Split("extbatch")) // same seed: paired across batch sizes
		protocol.BatchSize = b
		benefit, cautious, err := cfg.abmCell(ctx, fmt.Sprintf("extbatch-%d", b), protocol)
		if err != nil {
			return nil, fmt.Errorf("exp: extbatch b=%d: %w", b, err)
		}
		if b == 1 {
			adaptiveMean = benefit.Mean()
		}
		ratio := 1.0
		if adaptiveMean > 0 {
			ratio = benefit.Mean() / adaptiveMean
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f ±%.1f", benefit.Mean(), benefit.CI95()),
			fmt.Sprintf("%.2f ±%.2f", cautious.Mean(), cautious.CI95()),
			fmt.Sprintf("%.3f", ratio),
		})
	}

	tables := []stats.Table{{Header: header, Rows: rows}}
	return newReport("ext-batch", fmt.Sprintf("Extension: parallel batching vs full adaptivity (%s, k=%d)", dataset, cfg.K), tables, []string{
		"batch=1 is the paper's fully adaptive attacker; larger batches trade benefit for parallelism (reference [4])",
	}), nil
}
