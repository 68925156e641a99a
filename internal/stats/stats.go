// Package stats provides the small statistical toolkit shared by the
// experiment harness: order-free mean/variance accumulation (Welford),
// labeled series for benefit-vs-k curves, grids for the sensitivity heat
// maps, and plain-text rendering of tables, series and heat maps.
package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrMismatchedAxes is returned by SeriesTable when the
// series do not accumulate over the same positions — lining them up as
// columns would misattribute observations.
var ErrMismatchedAxes = errors.New("stats: mismatched axes")

// Welford reports the count, mean and variance of its observations. It
// keeps every observation (8 B each) and, when read, folds them with
// Welford's stable recurrence in ascending total order of their bits
// (orderKey), so every statistic depends on the multiset alone, never on
// the order of Add calls. The zero value is ready to use. Not safe for
// concurrent use, reads included: a read sorts in place. A copy shares
// its original's observations, so copy only an accumulator that nothing
// adds to any more, and only read the copy.
type Welford struct {
	xs []float64
}

// Add records one observation.
func (w *Welford) Add(x float64) { w.xs = append(w.xs, x) }

// fold sorts the observations into canonical order and folds them.
func (w *Welford) fold() (mean, m2 float64) {
	slices.SortFunc(w.xs, func(a, b float64) int { return cmp.Compare(orderKey(a), orderKey(b)) })
	for i, x := range w.xs {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	return mean, m2
}

// orderKey maps a float64 to an integer key whose order is a total order
// on the float's bits: -NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63) // negatives: flip all bits; others: the sign bit
}

// Sketch returns a new quantile sketch (NewSketch) of the observations,
// or nil for a nil accumulator.
func (w *Welford) Sketch() *Sketch {
	if w == nil {
		return nil
	}
	sk := NewSketch()
	for _, x := range w.xs {
		sk.Add(x)
	}
	return sk
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return int64(len(w.xs)) }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 {
	mean, _ := w.fold()
	return mean
}

// Variance returns the unbiased sample variance (0 with < 2 observations).
func (w *Welford) Variance() float64 {
	if len(w.xs) < 2 {
		return 0
	}
	_, m2 := w.fold()
	return m2 / float64(len(w.xs)-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if len(w.xs) == 0 {
		return 0
	}
	return w.Std() / math.Sqrt(float64(len(w.xs)))
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

// At returns the accumulator of cell (i, j).
func (g *Grid) At(i, j int) *Welford { return &g.accs[i*len(g.cols)+j] }
