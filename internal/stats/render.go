package stats

import (
	"fmt"
	"strings"
)

// Table is a structured result table: what an experiment reports, in a
// form that renders to fixed-width text and marshals to JSON for external
// plotting.
type Table struct {
	// Name optionally labels the table (e.g. the dataset of one section).
	Name string `json:"name,omitempty"`
	// Header holds the column names.
	Header []string `json:"header"`
	// Rows holds the data cells, pre-formatted.
	Rows [][]string `json:"rows"`
}

// Render renders the table as fixed-width text, prefixed with its name
// when set.
func (t Table) Render() string {
	body := RenderTable(t.Header, t.Rows)
	if t.Name == "" {
		return body
	}
	return "[" + t.Name + "]\n" + body
}

// SeriesTable converts aligned series into a Table: first column is the
// x position, then one "mean ± ci" column per series. All series must
// accumulate over identical x positions: iterating series[0]'s axis
// over a shorter series would panic at At(i) and a longer one would
// silently drop its tail points, so any mismatch fails loudly with
// ErrMismatchedAxes.
func SeriesTable(name, xName string, series []*Series) (Table, error) {
	t := Table{Name: name, Header: []string{xName}}
	if len(series) == 0 {
		return t, nil
	}
	for _, s := range series[1:] {
		if err := matchAxis("x", series[0].xs, s.xs); err != nil {
			return Table{}, fmt.Errorf("%w: series %q vs %q: %v", ErrMismatchedAxes, series[0].Label, s.Label, err)
		}
	}
	for _, s := range series {
		t.Header = append(t.Header, s.Label)
	}
	for i := 0; i < series[0].Len(); i++ {
		row := make([]string, 0, len(t.Header))
		row = append(row, trimFloat(series[0].X(i)))
		for _, s := range series {
			acc := s.At(i)
			row = append(row, formatMeanCI(acc.Mean(), acc.CI95()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// GridTable converts a heat-map grid into a Table of cell means.
func GridTable(name string, g *Grid) Table {
	t := Table{Name: name, Header: []string{g.RowLabel + " \\ " + g.ColLabel}}
	for _, c := range g.Cols() {
		t.Header = append(t.Header, trimFloat(c))
	}
	for i, r := range g.Rows() {
		row := make([]string, 0, len(t.Header))
		row = append(row, trimFloat(r))
		for j := range g.Cols() {
			row = append(row, fmt.Sprintf("%.1f", g.At(i, j).Mean()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RenderTable renders rows as a fixed-width plain-text table with a
// header row, suitable for terminal output of experiment results.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			// A ragged row can carry more cells than the header; the
			// width table only covers header columns, so the surplus
			// cells render unpadded instead of indexing past widths.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s", w, cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// formatMeanCI renders "mean ± ci" with the precision of each part
// adapted to its own magnitude, so small fractions (e.g. Fig. 5's
// request shares) stay visible. Precision used to follow the mean
// alone, which rendered a mean of 5.0 with ci 0.04 as "5.0 ±0.0" —
// indistinguishable from zero uncertainty.
func formatMeanCI(mean, ci float64) string {
	return formatMagnitude(mean) + " ±" + formatMagnitude(ci)
}

// formatMagnitude formats one statistic: three decimals for nonzero
// sub-1 magnitudes, one decimal otherwise.
func formatMagnitude(x float64) string {
	if x != 0 && x < 1 && x > -1 {
		return fmt.Sprintf("%.3f", x)
	}
	return fmt.Sprintf("%.1f", x)
}

// trimFloat formats a float compactly (integers without decimals).
func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
