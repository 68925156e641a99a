package rng

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSeedSplitDeterministic(t *testing.T) {
	root := NewSeed(1, 2)
	a := root.Split("network")
	b := root.Split("network")
	if a != b {
		t.Fatalf("same label produced different seeds: %v vs %v", a, b)
	}
}

func TestSeedSplitDistinctLabels(t *testing.T) {
	root := NewSeed(1, 2)
	if root.Split("a") == root.Split("b") {
		t.Fatal("distinct labels produced identical seeds")
	}
}

func TestSeedSplitNDistinctIndices(t *testing.T) {
	root := NewSeed(7, 9)
	seen := make(map[Seed]int)
	for i := 0; i < 1000; i++ {
		s := root.SplitN("run", i)
		if prev, ok := seen[s]; ok {
			t.Fatalf("indices %d and %d collided", prev, i)
		}
		seen[s] = i
	}
}

func TestSeedRandReproducible(t *testing.T) {
	s := NewSeed(42, 43)
	r1 := s.Rand()
	r2 := s.Rand()
	for i := 0; i < 100; i++ {
		if a, b := r1.Uint64(), r2.Uint64(); a != b {
			t.Fatalf("stream diverged at %d: %d vs %d", i, a, b)
		}
	}
}

func TestSeedZeroValueUsable(t *testing.T) {
	var s Seed
	r := s.Rand()
	_ = r.Uint64() // must not panic
	if s.Split("x") == s.Split("y") {
		t.Fatal("zero seed split collision")
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children of the same parent should not produce correlated leading
	// outputs. Weak smoke test: first outputs must all be distinct.
	root := NewSeed(5, 5)
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		v := root.SplitN("child", i).Rand().Uint64()
		if seen[v] {
			t.Fatalf("first output collision at child %d", i)
		}
		seen[v] = true
	}
}

func TestPowerLawDegreesBounds(t *testing.T) {
	r := NewSeed(3, 3).Rand()
	degs, err := PowerLawDegrees(r, 5000, 2, 100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, d := range degs {
		if d < 2 || d > 101 { // +1 slack for the even-sum fixup
			t.Fatalf("degree %d out of bounds", d)
		}
		sum += d
	}
	if sum%2 != 0 {
		t.Error("degree sum is odd")
	}
}

func TestPowerLawDegreesHeavyTail(t *testing.T) {
	// A power law with gamma 2.1 must produce substantially more
	// high-degree nodes than one with gamma 3.5.
	countAbove := func(gamma float64) int {
		r := NewSeed(4, 4).Rand()
		degs, err := PowerLawDegrees(r, 20000, 2, 500, gamma)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range degs {
			if d >= 50 {
				n++
			}
		}
		return n
	}
	heavy, light := countAbove(2.1), countAbove(3.5)
	if heavy <= 2*light {
		t.Errorf("tail not heavier: gamma2.1 count %d vs gamma3.5 count %d", heavy, light)
	}
}

func TestPowerLawDegreesErrors(t *testing.T) {
	r := NewSeed(5, 6).Rand()
	cases := []struct {
		name              string
		n, minDeg, maxDeg int
		gamma             float64
	}{
		{"zero n", 0, 1, 10, 2.5},
		{"bad min", 10, 0, 10, 2.5},
		{"max below min", 10, 5, 4, 2.5},
		{"gamma too small", 10, 1, 10, 1.0},
	}
	for _, tc := range cases {
		if _, err := PowerLawDegrees(r, tc.n, tc.minDeg, tc.maxDeg, tc.gamma); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewSeed(6, 6).Rand()
	out, err := SampleWithoutReplacement(r, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 30 {
		t.Fatalf("len = %d, want 30", len(out))
	}
	seen := make(map[int]bool)
	for _, v := range out {
		if v < 0 || v >= 100 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementEdge(t *testing.T) {
	r := NewSeed(7, 7).Rand()
	if out, err := SampleWithoutReplacement(r, 5, 5); err != nil || len(out) != 5 {
		t.Errorf("k==n: out=%v err=%v", out, err)
	}
	if out, err := SampleWithoutReplacement(r, 5, 0); err != nil || len(out) != 0 {
		t.Errorf("k==0: out=%v err=%v", out, err)
	}
	if _, err := SampleWithoutReplacement(r, 5, 6); err == nil {
		t.Error("k>n: want error")
	}
	if _, err := SampleWithoutReplacement(r, 5, -1); err == nil {
		t.Error("k<0: want error")
	}
}

func TestSampleWithoutReplacementProperty(t *testing.T) {
	r := NewSeed(8, 8).Rand()
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw) % (n + 1)
		out, err := SampleWithoutReplacement(r, n, k)
		if err != nil || len(out) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulli(t *testing.T) {
	r := NewSeed(9, 9).PCG()
	if Bernoulli(r, 0) {
		t.Error("p=0 returned true")
	}
	if !Bernoulli(r, 1) {
		t.Error("p=1 returned false")
	}
	if Bernoulli(r, -0.5) {
		t.Error("p<0 returned true")
	}
	if !Bernoulli(r, 1.5) {
		t.Error("p>1 returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	freq := float64(hits) / draws
	if math.Abs(freq-0.3) > 0.01 {
		t.Errorf("p=0.3: frequency %.4f", freq)
	}
}

// TestPCGDrawsMatchRand is the oracle for the bare-PCG draws: over many
// seeds, Float64 and Bernoulli on a PCG give what rand.New of an equal
// PCG gives, draw for draw, for p in {-1, 0, 0.3, 1, 2, NaN}, and leave
// the stream at the same position after every call.
func TestPCGDrawsMatchRand(t *testing.T) {
	// bernoulliRand is Bernoulli as written on *rand.Rand.
	bernoulliRand := func(r *rand.Rand, p float64) bool {
		if p <= 0 {
			return false
		}
		if p >= 1 {
			return true
		}
		return r.Float64() < p
	}
	ps := []float64{-1, 0, 0.3, 1, 2, math.NaN()}
	for s := uint64(0); s < 300; s++ {
		seed := NewSeed(s*0x9e3779b97f4a7c15, s+1)
		src := seed.PCG()
		refSrc := rand.NewPCG(seed.hi, seed.lo)
		ref := rand.New(refSrc)
		samePosition := func(call string) {
			a, _ := src.MarshalBinary()
			b, _ := refSrc.MarshalBinary()
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: stream positions differ after %s", s, call)
			}
		}
		for i := range 60 {
			if got, want := Float64(src), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 = %v, rand.Rand gives %v", s, i, got, want)
			}
			samePosition("Float64")
			for _, p := range ps {
				if got, want := Bernoulli(src, p), bernoulliRand(ref, p); got != want {
					t.Fatalf("seed %d draw %d: Bernoulli(%v) = %v, rand.Rand gives %v", s, i, p, got, want)
				}
				samePosition(fmt.Sprintf("Bernoulli(%v)", p))
			}
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewSeed(10, 10).Rand()
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	Shuffle(r, xs)
	seen := make([]bool, 100)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("duplicate %d after shuffle", v)
		}
		seen[v] = true
	}
}
