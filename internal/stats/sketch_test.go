package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sketchBytes marshals a sketch's snapshot — the byte-identity the
// determinism contract is stated over.
func sketchBytes(t *testing.T, s *Sketch) string {
	t.Helper()
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if s.Count() != 0 {
		t.Errorf("count = %d", s.Count())
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty sketch should answer NaN")
	}
	snap := s.Snapshot()
	if snap.Min != 0 || snap.Max != 0 || snap.P50 != 0 {
		t.Errorf("empty snapshot carries NaN-unsafe values: %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("empty snapshot not marshalable: %v", err)
	}
}

func TestSketchSingleValue(t *testing.T) {
	s := NewSketch()
	s.Add(42.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42.5 {
			t.Errorf("Quantile(%v) = %v, want exactly 42.5 (clamped to min==max)", q, got)
		}
	}
	if s.Min() != 42.5 || s.Max() != 42.5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSketchInvalidQuantile(t *testing.T) {
	s := NewSketch()
	s.Add(1)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(s.Quantile(q)) {
			t.Errorf("Quantile(%v) should be NaN", q)
		}
	}
}

func TestSketchIgnoresNaNInf(t *testing.T) {
	s := NewSketch()
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	if s.Count() != 0 {
		t.Errorf("NaN/Inf counted: %d", s.Count())
	}
	s.Add(3)
	if s.Count() != 1 || s.Quantile(0.5) != 3 {
		t.Errorf("count=%d q50=%v", s.Count(), s.Quantile(0.5))
	}
}

func TestSketchNewSketchWithValidation(t *testing.T) {
	for _, tc := range []struct {
		alpha float64
		maxC  int
	}{{0, 64}, {1, 64}, {-0.1, 64}, {0.01, 7}, {0.01, 0}} {
		if _, err := NewSketchWith(tc.alpha, tc.maxC); err == nil {
			t.Errorf("NewSketchWith(%v, %d): want error", tc.alpha, tc.maxC)
		}
	}
}

// TestSketchQuantileAccuracy pins the relative-error guarantee against
// exact quantiles of the sorted sample, across signs and zeros.
func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 5000)
	// Room for every base bucket of the log-spread sample, so the test
	// pins the level-0 accuracy statement.
	s, err := NewSketchWith(DefaultSketchAlpha, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		var x float64
		switch i % 10 {
		case 0:
			x = 0
		case 1:
			x = -math.Exp(rng.Float64()*8 - 4) // negative, log-spread
		default:
			x = math.Exp(rng.Float64()*10 - 2) // positive, log-spread
		}
		xs = append(xs, x)
		s.Add(x)
	}
	sort.Float64s(xs)
	if s.Level() != 0 {
		t.Fatalf("level = %d; accuracy statement below assumes base resolution", s.Level())
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		rank := int(math.Ceil(q * float64(len(xs))))
		if rank < 1 {
			rank = 1
		}
		exact := xs[rank-1]
		got := s.Quantile(q)
		tol := 2*DefaultSketchAlpha*math.Abs(exact) + 1e-12
		if math.Abs(got-exact) > tol {
			t.Errorf("Quantile(%v) = %v, exact %v (|err| %v > tol %v)", q, got, exact, math.Abs(got-exact), tol)
		}
	}
	if got := s.Quantile(0); got != xs[0] {
		t.Errorf("Quantile(0) = %v, want exact min %v", got, xs[0])
	}
	if got := s.Quantile(1); got != xs[len(xs)-1] {
		t.Errorf("Quantile(1) = %v, want exact max %v", got, xs[len(xs)-1])
	}
}

// TestSketchMergeMatchesSingleStream is the core mergeability property:
// partitioning a stream arbitrarily, sketching the parts independently
// and merging in a shuffled order must yield byte-identical state to
// one sketch that saw every observation directly.
func TestSketchMergeMatchesSingleStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = -rng.ExpFloat64() * 100
			default:
				xs[i] = rng.ExpFloat64() * 1000
			}
		}
		single := NewSketch()
		for _, x := range xs {
			single.Add(x)
		}

		parts := 1 + rng.Intn(6)
		sketches := make([]*Sketch, parts)
		for i := range sketches {
			sketches[i] = NewSketch()
		}
		for _, x := range xs {
			sketches[rng.Intn(parts)].Add(x)
		}
		rng.Shuffle(parts, func(i, j int) { sketches[i], sketches[j] = sketches[j], sketches[i] })
		merged := NewSketch()
		for _, part := range sketches {
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := sketchBytes(t, merged), sketchBytes(t, single); got != want {
			t.Fatalf("trial %d: merged snapshot differs from single-stream\nmerged: %s\nsingle: %s", trial, got, want)
		}
	}
}

// TestSketchMergeAssociativeOrderInsensitive checks (a⊕b)⊕c == a⊕(b⊕c)
// == (c⊕a)⊕b at the byte level.
func TestSketchMergeAssociativeOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mk := func(n int) *Sketch {
		s := NewSketch()
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * 50)
		}
		return s
	}
	a, b, c := mk(100), mk(3), mk(750)
	fold := func(parts ...*Sketch) string {
		out := NewSketch()
		for _, p := range parts {
			if err := out.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		return sketchBytes(t, out)
	}
	left := fold(a, b, c)
	ab := NewSketch()
	if err := ab.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := ab.Merge(b); err != nil {
		t.Fatal(err)
	}
	bc := NewSketch()
	if err := bc.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := bc.Merge(c); err != nil {
		t.Fatal(err)
	}
	right := fold(a, bc)
	rotated := fold(c, a, b)
	grouped := fold(ab, c)
	if left != right || left != rotated || left != grouped {
		t.Fatalf("merge not associative/order-insensitive:\n(a b)c: %s\na(bc):  %s\n(c a)b: %s", left, right, rotated)
	}
	// Merging must not mutate its argument.
	before := sketchBytes(t, b)
	s := NewSketch()
	if err := s.Merge(b); err != nil {
		t.Fatal(err)
	}
	if sketchBytes(t, b) != before {
		t.Error("Merge mutated its argument")
	}
}

// TestSketchCoarsening drives the sketch past its centroid bound and
// checks the canonical-level contract survives: bounded memory, exact
// counts, and partition-order-independent bytes even across levels.
func TestSketchCoarsening(t *testing.T) {
	const maxC = 16
	mk := func() *Sketch {
		s, err := NewSketchWith(0.01, maxC)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	n := 20000
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(17))
	for i := range vals {
		vals[i] = math.Exp(rng.Float64()*20 - 10) // forces far more than 16 base buckets
	}
	single := mk()
	for _, v := range vals {
		single.Add(v)
	}
	if single.Centroids() > maxC {
		t.Errorf("centroids = %d > bound %d", single.Centroids(), maxC)
	}
	if single.Level() == 0 {
		t.Error("expected coarsening to engage")
	}
	if single.Count() != int64(n) {
		t.Errorf("count = %d", single.Count())
	}

	// A fine sketch (few values, level 0) merged with a coarse one, in
	// both orders, against the single stream.
	fine, coarseFirst := mk(), mk()
	cut := 10
	for _, v := range vals[:cut] {
		fine.Add(v)
	}
	coarse := mk()
	for _, v := range vals[cut:] {
		coarse.Add(v)
	}
	if err := coarseFirst.Merge(coarse); err != nil {
		t.Fatal(err)
	}
	if err := coarseFirst.Merge(fine); err != nil {
		t.Fatal(err)
	}
	fineFirst := mk()
	if err := fineFirst.Merge(fine); err != nil {
		t.Fatal(err)
	}
	if err := fineFirst.Merge(coarse); err != nil {
		t.Fatal(err)
	}
	want := sketchBytes(t, single)
	if got := sketchBytes(t, coarseFirst); got != want {
		t.Errorf("coarse-then-fine differs from single stream")
	}
	if got := sketchBytes(t, fineFirst); got != want {
		t.Errorf("fine-then-coarse differs from single stream")
	}
}

func TestSketchMergeIncompatible(t *testing.T) {
	a := NewSketch()
	b, err := NewSketchWith(0.01, DefaultMaxCentroids)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Error("merging different alpha should fail")
	}
	c, err := NewSketchWith(DefaultSketchAlpha, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(1)
	if err := a.Merge(c); err == nil {
		t.Error("merging different maxCentroids should fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("merging nil should no-op: %v", err)
	}
}

func TestSketchSnapshotRoundTrip(t *testing.T) {
	s := NewSketch()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		s.Add(rng.NormFloat64() * 10)
	}
	s.Add(0)
	snap := s.Snapshot()
	back, err := SketchFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sketchBytes(t, back), sketchBytes(t, s); got != want {
		t.Errorf("round trip changed state:\n%s\n%s", got, want)
	}
	// The restored sketch must keep merging correctly.
	other := NewSketch()
	other.Add(5)
	if err := back.Merge(other); err != nil {
		t.Fatal(err)
	}
	if back.Count() != s.Count()+1 {
		t.Errorf("post-round-trip merge count = %d", back.Count())
	}
}

func TestSketchFromSnapshotRejectsCorrupt(t *testing.T) {
	s := NewSketch()
	s.Add(1)
	s.Add(-2)
	good := s.Snapshot()

	bad := good
	bad.Count = 99
	if _, err := SketchFromSnapshot(bad); err == nil {
		t.Error("count mismatch accepted")
	}
	bad = good
	bad.Pos = append([]SketchCentroid(nil), good.Pos...)
	bad.Pos[0].Count = -1
	if _, err := SketchFromSnapshot(bad); err == nil {
		t.Error("negative bucket count accepted")
	}
	bad = good
	bad.Pos = append(append([]SketchCentroid(nil), good.Pos...), good.Pos[0])
	if _, err := SketchFromSnapshot(bad); err == nil {
		t.Error("duplicate bucket accepted")
	}
	bad = good
	bad.Alpha = 0
	if _, err := SketchFromSnapshot(bad); err == nil {
		t.Error("invalid alpha accepted")
	}
}
