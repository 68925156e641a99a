// Package obs is a lightweight, allocation-conscious metrics layer for
// the simulator's hot paths: atomic counters and gauges, histograms over
// the stats quantile sketch, plus a Span phase timer. It exists so the
// Monte-Carlo engine can report what ABM's lazy re-scoring and the
// worker fan-out are actually doing at scale.
//
// Every instrument is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram or zero Span are no-ops, so instrumented code pays
// only a nil check when metrics are disabled. Lookup (Registry.Counter
// and friends) takes a mutex and may allocate; callers are expected to
// resolve instruments once — at construction or Init time — and hold the
// pointer across the hot loop.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/accu-sim/accu/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add offsets the gauge by d via a CAS loop. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram aggregates non-negative int64 observations (values or
// nanosecond durations) in a stats.Sketch, the quantile structure the
// result summaries use: exact count, sum, min and max, and quantiles
// within the sketch's relative error (0.5% at base resolution, doubling
// with each coarsening; see stats.Sketch). The zero value is ready to
// use, and a mutex makes it safe for concurrent use.
type Histogram struct {
	mu  sync.Mutex
	sum int64
	sk  *stats.Sketch // nil until the first observation
}

// Observe records one observation. Negative values are clamped to 0.
// No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	v = max(v, 0)
	h.mu.Lock()
	if h.sk == nil {
		h.sk = stats.NewSketch()
	}
	h.sum += v
	h.sk.Add(float64(v))
	h.mu.Unlock()
}

// value captures every statistic under one lock, so they describe the
// same observations. It is the zero value (unnamed) on a nil or empty
// histogram.
func (h *Histogram) value() HistogramValue {
	if h == nil {
		return HistogramValue{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sk == nil {
		return HistogramValue{}
	}
	s := h.sk.Snapshot()
	return HistogramValue{
		Count: s.Count,
		Sum:   h.sum,
		Mean:  float64(h.sum) / float64(s.Count),
		Min:   int64(s.Min),
		Max:   int64(s.Max),
		P50:   int64(math.Round(s.P50)),
		P90:   int64(math.Round(s.P90)),
		P99:   int64(math.Round(s.P99)),
	}
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 { return h.value().Count }

// Sum returns the sum of observations; 0 on a nil histogram.
func (h *Histogram) Sum() int64 { return h.value().Sum }

// Mean returns the mean observation; 0 with no observations.
func (h *Histogram) Mean() float64 { return h.value().Mean }

// Min returns the smallest observation; 0 with no observations.
func (h *Histogram) Min() int64 { return h.value().Min }

// Max returns the largest observation; 0 with no observations.
func (h *Histogram) Max() int64 { return h.value().Max }

// Quantile estimates the q-quantile, rounded to the nearest integer:
// within the sketch's relative error, never outside [Min, Max], and
// exactly Min or Max at the extreme ranks. Returns 0 with no
// observations or q outside [0, 1].
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || !(q >= 0 && q <= 1) {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sk == nil {
		return 0
	}
	return int64(math.Round(h.sk.Quantile(q)))
}

// Registry is a named collection of instruments. The zero value is not
// usable; call New. A nil *Registry is the disabled state: every lookup
// returns a nil instrument and every recording is a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
