// Package stats provides the small statistical toolkit shared by the
// experiment harness: online mean/variance accumulation (Welford),
// labeled series for benefit-vs-k curves, grids for the sensitivity heat
// maps, and plain-text rendering of tables, series and heat maps.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrMismatchedAxes is returned by SeriesTable when the
// series do not accumulate over the same positions — lining them up as
// columns would misattribute observations.
var ErrMismatchedAxes = errors.New("stats: mismatched axes")

// Welford accumulates a stream of observations with numerically stable
// online mean and variance. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge folds another accumulator into this one (parallel reduction,
// Chan et al.).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with < 2 observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Series is a sequence of x-positions each accumulating y observations —
// one benefit-vs-k curve, for example. Construct with NewSeries.
type Series struct {
	// Label names the curve (e.g. the policy name).
	Label string
	xs    []float64
	accs  []Welford
}

// NewSeries creates a series over the given x positions.
func NewSeries(label string, xs []float64) *Series {
	return &Series{
		Label: label,
		xs:    append([]float64(nil), xs...),
		accs:  make([]Welford, len(xs)),
	}
}

// Len returns the number of x positions.
func (s *Series) Len() int { return len(s.xs) }

// X returns the x position at index i.
func (s *Series) X(i int) float64 { return s.xs[i] }

// Add folds an observation into position i.
func (s *Series) Add(i int, y float64) {
	s.accs[i].Add(y)
}

// At returns the accumulator at position i.
func (s *Series) At(i int) *Welford { return &s.accs[i] }

// matchAxis verifies two axes cover the same positions. Positions are
// compared by bit pattern, not by ==: NaN != NaN under IEEE comparison,
// so two series with identical axes containing a NaN position (an
// undefined parameter slot in a sweep, say) could otherwise never line up.
// Bit equality also keeps the check strict — -0 and +0 are different
// positions, as are distinct NaN payloads.
func matchAxis(name string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s axis length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s axis position %d: %v vs %v", name, i, a[i], b[i])
		}
	}
	return nil
}

// Means returns the mean at every x position.
func (s *Series) Means() []float64 {
	out := make([]float64, len(s.accs))
	for i := range s.accs {
		out[i] = s.accs[i].Mean()
	}
	return out
}

// Grid is a rows×cols matrix of accumulators for heat maps. Construct
// with NewGrid.
type Grid struct {
	// RowLabel and ColLabel name the two axes.
	RowLabel, ColLabel string
	rows, cols         []float64
	accs               []Welford
}

// NewGrid creates a grid over the given axis values.
func NewGrid(rowLabel string, rows []float64, colLabel string, cols []float64) *Grid {
	return &Grid{
		RowLabel: rowLabel,
		ColLabel: colLabel,
		rows:     append([]float64(nil), rows...),
		cols:     append([]float64(nil), cols...),
		accs:     make([]Welford, len(rows)*len(cols)),
	}
}

// Rows returns the row axis values.
func (g *Grid) Rows() []float64 { return g.rows }

// Cols returns the column axis values.
func (g *Grid) Cols() []float64 { return g.cols }

// Add folds an observation into cell (i, j).
func (g *Grid) Add(i, j int, y float64) { g.accs[i*len(g.cols)+j].Add(y) }

// At returns the accumulator of cell (i, j).
func (g *Grid) At(i, j int) *Welford { return &g.accs[i*len(g.cols)+j] }
