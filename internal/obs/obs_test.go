package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if r.Counter("x") != c {
		t.Fatal("same name must return same counter")
	}
	if r.Counter("y") == c {
		t.Fatal("different names must not share a counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	g := New().Gauge("g")
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %v, want 4", got)
	}
	g.Add(-5)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %v, want -1", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := New().Histogram("h")
	for _, v := range []int64{5, 1, 100, 7, -3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 113 { // -3 clamps to 0
		t.Fatalf("Sum = %d, want 113", got)
	}
	if got := h.Min(); got != 0 {
		t.Fatalf("Min = %d, want 0", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
	if got := h.Mean(); got != 113.0/5 {
		t.Fatalf("Mean = %v", got)
	}
}

// TestHistogramQuantileRelativeError pins the sketch's accuracy over two
// decades of values (a power-of-two bucket would be off by up to 50%
// here), the exact extremes, and that the snapshot depends only on the
// multiset observed, not on its order.
func TestHistogramQuantileRelativeError(t *testing.T) {
	up, down := New().Histogram("h"), New().Histogram("h")
	const n = 100000
	for v := int64(1); v <= n; v++ {
		up.Observe(1000 + v)
		down.Observe(1000 + n + 1 - v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := 1000 + math.Ceil(q*n)
		got := float64(up.Quantile(q))
		if rel := math.Abs(got-exact) / exact; rel > 0.006 {
			t.Errorf("Quantile(%v) = %v, exact %v: relative error %.4f > 0.006", q, got, exact, rel)
		}
	}
	if up.Quantile(0) != 1001 || up.Quantile(1) != 1000+n {
		t.Errorf("extreme quantiles = %d, %d; want the exact min and max", up.Quantile(0), up.Quantile(1))
	}
	if got, want := up.value(), down.value(); got != want {
		t.Errorf("snapshot depends on observation order:\n%+v\n%+v", got, want)
	}
	if got := (&Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	if got := up.Quantile(1.5); got != 0 {
		t.Errorf("Quantile(1.5) = %d, want 0", got)
	}
}

// TestNilRegistryNoOp pins the disabled fast path: every instrument and
// span obtained from a nil registry must be inert and crash-free.
func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d", got)
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge Value = %v", got)
	}
	h := r.Histogram("h")
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	sp := StartSpan(r.Histogram("phase"))
	if !sp.start.IsZero() {
		t.Fatal("nil-registry span must not read the clock")
	}
	sp.End()
	if r.Snapshot() != nil {
		t.Fatal("nil registry Snapshot must be nil")
	}
	var s *Snapshot
	if !s.Empty() {
		t.Fatal("nil snapshot must be Empty")
	}
}

// TestConcurrentInstruments hammers one counter, gauge and histogram
// from many goroutines; run under -race this doubles as the data-race
// proof, and the totals pin that no update is lost.
func TestConcurrentInstruments(t *testing.T) {
	r := New()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Lookup under concurrency must converge on one instrument.
			c := r.Counter("shared")
			h := r.Histogram("hist")
			g := r.Gauge("gauge")
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(int64(j % 64))
				g.Set(float64(id))
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("hist")
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("hist count = %d, want %d", got, goroutines*perG)
	}
	var perGSum int64
	for j := 0; j < perG; j++ {
		perGSum += int64(j % 64)
	}
	wantSum := int64(goroutines) * perGSum
	if got := h.Sum(); got != wantSum {
		t.Fatalf("hist sum = %d, want %d", got, wantSum)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("hist min/max = %d/%d, want 0/63", h.Min(), h.Max())
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := New()
	sp := StartSpan(r.Histogram("phase_ns"))
	time.Sleep(time.Millisecond)
	sp.End()
	h := r.Histogram("phase_ns")
	if h.Count() != 1 {
		t.Fatalf("span count = %d, want 1", h.Count())
	}
	if h.Sum() < int64(time.Millisecond/2) {
		t.Fatalf("span recorded %dns, want >= ~1ms", h.Sum())
	}
}

func TestSnapshotStableAndRenderable(t *testing.T) {
	r := New()
	r.Counter("b_counter").Add(2)
	r.Counter("a_counter").Add(1)
	r.Gauge("util").Set(0.75)
	r.Histogram("lat_ns").Observe(1500)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_counter" || s.Counters[1].Name != "b_counter" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Empty() {
		t.Fatal("snapshot should not be empty")
	}
	text := s.Render()
	for _, want := range []string{"a_counter", "util", "0.750", "lat_ns"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered snapshot missing %q:\n%s", want, text)
		}
	}
	// Snapshots marshal for -json report embedding.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got := New().Snapshot(); !got.Empty() {
		t.Fatal("fresh registry snapshot must be Empty")
	}
}

// BenchmarkCounter measures the enabled and disabled (nil) hot paths.
func BenchmarkCounter(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		c := New().Counter("c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

// BenchmarkHistogramObserve measures both histogram hot paths, and the
// enabled one shared by every goroutine (the engine's workers all
// observe into one registry).
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		h := New().Histogram("h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i % 4096))
		}
	})
	b.Run("shared", func(b *testing.B) {
		h := New().Histogram("h")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := int64(0); pb.Next(); i++ {
				h.Observe(i % 4096)
			}
		})
	})
	b.Run("disabled", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i % 4096))
		}
	})
}
