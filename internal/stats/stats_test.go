package stats

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Errorf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v", w.Variance())
	}
	if math.Abs(w.Std()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("std = %v", w.Std())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Errorf("mean=%v var=%v", w.Mean(), w.Variance())
	}
}

// TestWelfordOrderFree pins the accumulator's contract: one multiset of
// values gives byte-identical snapshot JSON whatever order it is added
// in, including the orders a split grid delivers — the values dealt out
// into parts (ranges of a distributed grid, a resumed journal and the
// cells computed after it), the parts arriving in any order, each in any
// order inside. Values span many magnitudes, signed zeros and repeats,
// so a fold that followed the add order would differ in the last bits.
func TestWelfordOrderFree(t *testing.T) {
	f := func(raw []int32, assign []uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var xs []float64
		for i, v := range raw {
			x := float64(v) / 7
			xs = append(xs, x*math.Pow(10, float64(i%7-3)), x, math.Copysign(0, x))
		}
		var ref Welford
		for _, x := range xs {
			ref.Add(x)
		}
		want, err := json.Marshal(ref.Snapshot())
		if err != nil {
			t.Fatal(err)
		}

		shuffled := slices.Clone(xs)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		const parts = 4
		var split [parts][]float64
		for i, x := range xs {
			p := 0
			if i < len(assign) {
				p = int(assign[i]) % parts
			}
			split[p] = append(split[p], x)
		}
		var parted []float64
		for _, p := range r.Perm(parts) {
			r.Shuffle(len(split[p]), func(i, j int) { split[p][i], split[p][j] = split[p][j], split[p][i] })
			parted = append(parted, split[p]...)
		}
		for _, order := range [][]float64{shuffled, parted} {
			var w Welford
			for _, x := range order {
				w.Add(x)
			}
			got, err := json.Marshal(w.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Logf("got  %s\nwant %s", got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWelfordReadThenAdd checks that a read, which sorts the values in
// place, leaves the accumulator open to further adds.
func TestWelfordReadThenAdd(t *testing.T) {
	var w Welford
	w.Add(3)
	if w.Mean() != 3 {
		t.Fatalf("mean = %v", w.Mean())
	}
	w.Add(1)
	if w.Mean() != 2 || w.Variance() != 2 || w.Count() != 2 {
		t.Errorf("after a second add: mean %v variance %v count %d", w.Mean(), w.Variance(), w.Count())
	}
}

func TestWelfordCI95(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(float64(i % 2)) // mean 0.5, std ≈ 0.5025
	}
	ci := w.CI95()
	if ci < 0.09 || ci > 0.11 {
		t.Errorf("CI95 = %v, want ≈ 0.0985", ci)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("abm", []float64{10, 20, 30})
	if s.Len() != 3 || s.X(1) != 20 {
		t.Fatalf("series shape wrong")
	}
	s.Add(0, 1)
	s.Add(0, 3)
	s.Add(2, 10)
	if s.At(0).Mean() != 2 {
		t.Errorf("mean[0] = %v", s.At(0).Mean())
	}
	means := s.Means()
	if means[0] != 2 || means[1] != 0 || means[2] != 10 {
		t.Errorf("means = %v", means)
	}
}

// TestMergeNaNAxes is the regression test for the NaN axis bug (first
// seen merging series): matchAxis compared positions with !=, so two
// axes with a NaN position could never match — NaN != NaN under IEEE
// comparison. Identical-bits NaN positions must match; a NaN against a
// real number must still mismatch, in both orders.
func TestMergeNaNAxes(t *testing.T) {
	nan := math.NaN()
	a := NewSeries("a", []float64{1, nan, 3})
	b := NewSeries("b", []float64{1, nan, 3})
	a.Add(1, 2)
	b.Add(1, 4)
	tab, err := SeriesTable("t", "k", []*Series{a, b})
	if err != nil {
		t.Fatalf("identical NaN axes refused to line up: %v", err)
	}
	if got := tab.Rows[1][2]; got != "4.0 ±0.0" {
		t.Errorf("NaN position of b = %q, want \"4.0 ±0.0\"", got)
	}
	c := NewSeries("c", []float64{1, 2, 3})
	if _, err := SeriesTable("t", "k", []*Series{a, c}); !errors.Is(err, ErrMismatchedAxes) {
		t.Errorf("NaN vs 2: err = %v, want ErrMismatchedAxes", err)
	}
	if _, err := SeriesTable("t", "k", []*Series{c, a}); !errors.Is(err, ErrMismatchedAxes) {
		t.Errorf("2 vs NaN: err = %v, want ErrMismatchedAxes", err)
	}
}

func TestGrid(t *testing.T) {
	g := NewGrid("theta", []float64{0.1, 0.2}, "benefit", []float64{20, 50, 100})
	g.At(0, 2).Add(7)
	g.At(1, 0).Add(3)
	g.At(1, 0).Add(5)
	if g.At(0, 2).Mean() != 7 {
		t.Errorf("cell (0,2) = %v", g.At(0, 2).Mean())
	}
	if g.At(1, 0).Mean() != 4 {
		t.Errorf("cell (1,0) = %v", g.At(1, 0).Mean())
	}
	if g.At(0, 0).Count() != 0 {
		t.Error("untouched cell has observations")
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"beta", "22"},
	})
	if !strings.Contains(out, "name") || !strings.Contains(out, "alpha") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Columns aligned: every line has the same prefix width before col 2.
	if !strings.HasPrefix(lines[3], "beta ") {
		t.Errorf("row misaligned: %q", lines[3])
	}
}

// TestSeriesTableMismatchedAxes is the regression test for the silent
// shared-axis assumption: a shorter series used to panic at At(i) and a
// longer one silently lost its tail points. Both now fail loudly.
func TestSeriesTableMismatchedAxes(t *testing.T) {
	cases := map[string]*Series{
		"shorter": NewSeries("s", []float64{10}),
		"longer":  NewSeries("s", []float64{10, 20, 30}),
		"shifted": NewSeries("s", []float64{10, 25}),
	}
	for name, other := range cases {
		base := NewSeries("base", []float64{10, 20})
		base.Add(0, 1)
		if _, err := SeriesTable("t", "k", []*Series{base, other}); !errors.Is(err, ErrMismatchedAxes) {
			t.Errorf("SeriesTable %s: err = %v, want ErrMismatchedAxes", name, err)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(10) != "10" {
		t.Errorf("trimFloat(10) = %q", trimFloat(10))
	}
	if trimFloat(0.25) != "0.25" {
		t.Errorf("trimFloat(0.25) = %q", trimFloat(0.25))
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	out := tab.Render()
	if strings.HasPrefix(out, "[") {
		t.Errorf("unnamed table rendered with name prefix: %q", out)
	}
	tab.Name = "section"
	out = tab.Render()
	if !strings.HasPrefix(out, "[section]\n") {
		t.Errorf("named table missing prefix: %q", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "1") {
		t.Errorf("table body missing: %q", out)
	}
}

func TestSeriesTable(t *testing.T) {
	s1 := NewSeries("abm", []float64{10, 20})
	s1.Add(0, 5)
	s1.Add(1, 0.25) // sub-1 mean gets 3 decimals
	tab, err := SeriesTable("ds", "k", []*Series{s1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "ds" || len(tab.Header) != 2 || tab.Header[1] != "abm" {
		t.Fatalf("table = %+v", tab)
	}
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "10" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	if !strings.Contains(tab.Rows[1][1], "0.250") {
		t.Errorf("small mean lost precision: %v", tab.Rows[1][1])
	}
	empty, err := SeriesTable("x", "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 || len(empty.Header) != 1 {
		t.Errorf("empty series table = %+v", empty)
	}
}

func TestGridTable(t *testing.T) {
	g := NewGrid("theta", []float64{0.1}, "Bf", []float64{20, 50})
	g.At(0, 0).Add(3)
	g.At(0, 1).Add(7)
	tab := GridTable("tw", g)
	if tab.Name != "tw" || len(tab.Header) != 3 {
		t.Fatalf("table = %+v", tab)
	}
	if tab.Rows[0][1] != "3.0" || tab.Rows[0][2] != "7.0" {
		t.Errorf("rows = %v", tab.Rows)
	}
}

func TestFormatMeanCI(t *testing.T) {
	if got := formatMeanCI(0.123, 0.045); got != "0.123 ±0.045" {
		t.Errorf("small = %q", got)
	}
	if got := formatMeanCI(12.34, 1.2); got != "12.3 ±1.2" {
		t.Errorf("large = %q", got)
	}
	if got := formatMeanCI(0, 0); got != "0.0 ±0.0" {
		t.Errorf("zero = %q", got)
	}
	if got := formatMeanCI(-0.5, 0.1); got != "-0.500 ±0.100" {
		t.Errorf("negative small = %q", got)
	}
	// Regression: a mean >= 1 with a small nonzero ci used to render
	// "±0.0" — indistinguishable from zero uncertainty. The ci's
	// precision now follows its own magnitude.
	if got := formatMeanCI(5.0, 0.04); got != "5.0 ±0.040" {
		t.Errorf("large mean small ci = %q, want \"5.0 ±0.040\"", got)
	}
	if got := formatMeanCI(1234.5, 0.001); got != "1234.5 ±0.001" {
		t.Errorf("tiny ci = %q", got)
	}
	if got := formatMeanCI(0.02, 3.5); got != "0.020 ±3.5" {
		t.Errorf("small mean large ci = %q", got)
	}
}

// TestRenderTableRaggedRow is the regression test for the
// index-out-of-range panic: width computation guarded i < len(widths)
// but writeRow did not, so a row with more cells than the header
// panicked. Surplus cells now render unpadded.
func TestRenderTableRaggedRow(t *testing.T) {
	out := RenderTable([]string{"a", "b"}, [][]string{
		{"1", "2", "surplus", "more"},
		{"3"},
	})
	for _, want := range []string{"a", "b", "1", "2", "surplus", "more", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}
