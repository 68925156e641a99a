package exp

import (
	"context"
	"fmt"
	"strconv"

	"github.com/accu-sim/accu/internal/stats"
)

// Table1 reproduces Table I: the statistics of the four datasets. Since
// the SNAP data cannot be fetched offline, the table reports both the
// paper's reference counts and the generated stand-in's counts at the
// configured scale, plus the degree-band population that the cautious
// selection protocol depends on.
func Table1(ctx context.Context, cfg Config) (*Report, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	header := []string{"Network", "Kind", "RefNodes", "RefEdges", "GenNodes", "GenEdges", "MeanDeg", "MaxDeg", "Band[10,100]"}
	var rows [][]string
	var notes []string
	for _, name := range cfg.Datasets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, preset, err := cfg.generator(name)
		if err != nil {
			return nil, err
		}
		sample, err := g.Generate(cfg.Seed.Split("table1-" + name))
		if err != nil {
			return nil, fmt.Errorf("exp: table1 %s: %w", name, err)
		}
		st := sample.ComputeDegreeStats(10, 100)
		rows = append(rows, []string{
			name,
			preset.Kind,
			strconv.Itoa(preset.RefNodes),
			strconv.Itoa(preset.RefEdges),
			strconv.Itoa(sample.N()),
			strconv.Itoa(sample.M()),
			fmt.Sprintf("%.1f", st.Mean),
			strconv.Itoa(st.Max),
			strconv.Itoa(st.InBand),
		})
		refMean := 2 * float64(preset.RefEdges) / float64(preset.RefNodes)
		if st.Mean < refMean*0.5 || st.Mean > refMean*1.6 {
			notes = append(notes, fmt.Sprintf("%s: mean degree %.1f drifted from reference %.1f", name, st.Mean, refMean))
		}
	}
	tables := []stats.Table{{Header: header, Rows: rows}}
	return newReport("table1", "Dataset statistics (paper reference vs generated stand-in)", tables, notes), nil
}
