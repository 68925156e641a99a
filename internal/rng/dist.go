package rng

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// PowerLawDegrees samples n integer degrees from a discrete power law
// P(d) ∝ d^(-gamma) on [minDeg, maxDeg], using inverse transform sampling
// on the continuous approximation, rounded down. The returned sequence sum
// is forced even (one sample is incremented if needed) so it can feed a
// configuration model.
func PowerLawDegrees(r *rand.Rand, n, minDeg, maxDeg int, gamma float64) ([]int, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("rng: n must be positive, got %d", n)
	case minDeg < 1:
		return nil, fmt.Errorf("rng: minDeg must be >= 1, got %d", minDeg)
	case maxDeg < minDeg:
		return nil, fmt.Errorf("rng: maxDeg %d < minDeg %d", maxDeg, minDeg)
	case gamma <= 1:
		return nil, fmt.Errorf("rng: gamma must be > 1, got %v", gamma)
	}
	degs := make([]int, n)
	lo := math.Pow(float64(minDeg), 1-gamma)
	hi := math.Pow(float64(maxDeg)+1, 1-gamma)
	sum := 0
	for i := range degs {
		u := r.Float64()
		x := math.Pow(lo+u*(hi-lo), 1/(1-gamma))
		d := int(x)
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		degs[i] = d
		sum += d
	}
	if sum%2 != 0 {
		degs[0]++
	}
	return degs, nil
}

// Shuffle permutes the slice in place.
func Shuffle[T any](r *rand.Rand, xs []T) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithoutReplacement draws k distinct values from [0, n) uniformly.
// It uses Floyd's algorithm: O(k) expected time and memory.
func SampleWithoutReplacement(r *rand.Rand, n, k int) ([]int, error) {
	if k < 0 || k > n {
		return nil, fmt.Errorf("rng: cannot sample %d from %d", k, n)
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	Shuffle(r, out)
	return out, nil
}

// Float64 returns a uniform value in [0, 1) from src: the draw
// rand.New(src).Float64 makes, one Uint64, without the interface call.
func Float64(src *rand.PCG) float64 {
	return float64(src.Uint64()<<11>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. A p <= 0 or p >= 1 is
// certain and draws nothing; any other p, NaN included, draws one
// Float64 (NaN then reports false).
func Bernoulli(src *rand.PCG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Float64(src) < p
}
