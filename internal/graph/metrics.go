package graph

import (
	"math"
	"sort"
)

// DegreeStats summarizes the degree distribution of a graph.
type DegreeStats struct {
	Min    int
	Max    int
	Mean   float64
	Median float64
	// P90 and P99 are the 90th and 99th percentile degrees.
	P90 int
	P99 int
	// InBand counts nodes with degree within [BandLo, BandHi], the band
	// the paper draws cautious users from.
	InBand         int
	BandLo, BandHi int
}

// Degrees returns the degree of every node.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for u := range out {
		out[u] = g.Degree(u)
	}
	return out
}

// ComputeDegreeStats computes summary statistics of the degree
// distribution, counting nodes within the degree band [bandLo, bandHi].
func (g *Graph) ComputeDegreeStats(bandLo, bandHi int) DegreeStats {
	st := DegreeStats{BandLo: bandLo, BandHi: bandHi}
	if g.n == 0 {
		return st
	}
	degs := g.Degrees()
	sort.Ints(degs)
	st.Min = degs[0]
	st.Max = degs[len(degs)-1]
	var sum int64
	for _, d := range degs {
		sum += int64(d)
		if d >= bandLo && d <= bandHi {
			st.InBand++
		}
	}
	st.Mean = float64(sum) / float64(len(degs))
	st.Median = percentileSorted(degs, 0.5)
	st.P90 = int(percentileSorted(degs, 0.9))
	st.P99 = int(percentileSorted(degs, 0.99))
	return st
}

func percentileSorted(sorted []int, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// LocalClustering returns the local clustering coefficient of u: the
// fraction of pairs of u's neighbors that are themselves connected.
// Nodes with degree < 2 have coefficient 0.
func (g *Graph) LocalClustering(u int) float64 {
	row := g.Neighbors(u)
	d := len(row)
	if d < 2 {
		return 0
	}
	closed := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(int(row[i]), int(row[j])) {
				closed++
			}
		}
	}
	return float64(closed) / float64(d*(d-1)/2)
}

// AverageClustering returns the mean local clustering coefficient over a
// uniform sample of up to maxSample nodes (all nodes if maxSample <= 0 or
// >= N). Sampling keeps the metric affordable on large graphs; the node
// subset is deterministic (stride sampling) so results are reproducible.
func (g *Graph) AverageClustering(maxSample int) float64 {
	if g.n == 0 {
		return 0
	}
	step := 1
	count := g.n
	if maxSample > 0 && maxSample < g.n {
		step = g.n / maxSample
		count = maxSample
	}
	var sum float64
	taken := 0
	for u := 0; u < g.n && taken < count; u += step {
		sum += g.LocalClustering(u)
		taken++
	}
	if taken == 0 {
		return 0
	}
	return sum / float64(taken)
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman 2002): positive when high-degree nodes attach to each
// other (social networks), negative for hub-and-spoke structures. Returns
// 0 for graphs with no edges or zero degree variance.
func (g *Graph) DegreeAssortativity() float64 {
	if g.m == 0 {
		return 0
	}
	// Sums over directed edges (each undirected edge counted twice,
	// which symmetrizes the correlation).
	var sx, sy, sxy, sxx, syy float64
	n := 0
	for u := 0; u < g.n; u++ {
		du := float64(g.Degree(u))
		for _, v := range g.Neighbors(u) {
			dv := float64(g.Degree(int(v)))
			sx += du
			sy += dv
			sxy += du * dv
			sxx += du * du
			syy += dv * dv
			n++
		}
	}
	fn := float64(n)
	num := sxy/fn - (sx/fn)*(sy/fn)
	denX := sxx/fn - (sx/fn)*(sx/fn)
	denY := syy/fn - (sy/fn)*(sy/fn)
	if denX <= 0 || denY <= 0 {
		return 0
	}
	return num / math.Sqrt(denX*denY)
}

// NodesInDegreeBand returns all nodes with degree in [lo, hi], ascending.
func (g *Graph) NodesInDegreeBand(lo, hi int) []int {
	var out []int
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d >= lo && d <= hi {
			out = append(out, u)
		}
	}
	return out
}
