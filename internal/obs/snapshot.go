package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/accu-sim/accu/internal/stats"
)

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram in a snapshot: count, sum and the
// derived shape statistics. Count, Sum, Min and Max are exact;
// P50/P90/P99 are sketch estimates (see Histogram), rounded to
// integers.
type HistogramValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// sorted by name — what experiment reports embed and the CLIs render.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered instrument.
// Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	for _, name := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.histograms) {
		v := r.histograms[name].value()
		v.Name = name
		s.Histograms = append(s.Histograms, v)
	}
	return s
}

// Empty reports whether the snapshot holds no instruments.
func (s *Snapshot) Empty() bool {
	return s == nil || (len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0)
}

// Prefixed returns a copy of the snapshot with prefix prepended to every
// instrument name. It is how a multi-registry process (one registry per
// job, say) scopes each registry's instruments before merging them into
// one dump: reg.Snapshot().Prefixed("job.j42."). The prefix should keep
// the combined names valid under NamePattern. Returns nil on a nil
// snapshot.
func (s *Snapshot) Prefixed(prefix string) *Snapshot {
	if s == nil {
		return nil
	}
	out := &Snapshot{
		Counters:   append([]CounterValue(nil), s.Counters...),
		Gauges:     append([]GaugeValue(nil), s.Gauges...),
		Histograms: append([]HistogramValue(nil), s.Histograms...),
	}
	for i := range out.Counters {
		out.Counters[i].Name = prefix + out.Counters[i].Name
	}
	for i := range out.Gauges {
		out.Gauges[i].Name = prefix + out.Gauges[i].Name
	}
	for i := range out.Histograms {
		out.Histograms[i].Name = prefix + out.Histograms[i].Name
	}
	return out
}

// Merge returns a new snapshot holding both sides' instruments, sorted by
// name. Either side may be nil. Names are expected to be disjoint (scope
// them with Prefixed first); duplicates are kept as-is, side by side.
func (s *Snapshot) Merge(o *Snapshot) *Snapshot {
	if s.Empty() {
		return o.Prefixed("") // copy
	}
	if o.Empty() {
		return s.Prefixed("")
	}
	out := &Snapshot{
		Counters:   append(append([]CounterValue(nil), s.Counters...), o.Counters...),
		Gauges:     append(append([]GaugeValue(nil), s.Gauges...), o.Gauges...),
		Histograms: append(append([]HistogramValue(nil), s.Histograms...), o.Histograms...),
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

// Tables renders the snapshot as fixed-width result tables (one per
// instrument kind), ready for stats.Table.Render.
func (s *Snapshot) Tables() []stats.Table {
	if s.Empty() {
		return nil
	}
	var out []stats.Table
	if len(s.Counters) > 0 {
		t := stats.Table{Name: "counters", Header: []string{"name", "value"}}
		for _, c := range s.Counters {
			t.Rows = append(t.Rows, []string{c.Name, fmt.Sprintf("%d", c.Value)})
		}
		out = append(out, t)
	}
	if len(s.Gauges) > 0 {
		t := stats.Table{Name: "gauges", Header: []string{"name", "value"}}
		for _, g := range s.Gauges {
			t.Rows = append(t.Rows, []string{g.Name, fmt.Sprintf("%.3f", g.Value)})
		}
		out = append(out, t)
	}
	if len(s.Histograms) > 0 {
		t := stats.Table{Name: "histograms", Header: []string{"name", "count", "mean", "min", "p50", "p90", "p99", "max", "sum"}}
		for _, h := range s.Histograms {
			isTime := strings.HasSuffix(h.Name, "_ns")
			t.Rows = append(t.Rows, []string{
				h.Name,
				fmt.Sprintf("%d", h.Count),
				formatVal(h.Mean, isTime),
				formatVal(float64(h.Min), isTime),
				formatVal(float64(h.P50), isTime),
				formatVal(float64(h.P90), isTime),
				formatVal(float64(h.P99), isTime),
				formatVal(float64(h.Max), isTime),
				formatVal(float64(h.Sum), isTime),
			})
		}
		out = append(out, t)
	}
	return out
}

// Render renders every snapshot table as plain text.
func (s *Snapshot) Render() string {
	var sb strings.Builder
	for i, t := range s.Tables() {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(t.Render())
	}
	return sb.String()
}

// formatVal renders a histogram statistic: nanosecond-named series
// ("*_ns") as human durations, everything else as a plain number.
func formatVal(v float64, isTime bool) string {
	if isTime {
		return time.Duration(v).Round(time.Microsecond).String()
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
