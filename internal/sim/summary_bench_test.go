package sim_test

import (
	"context"
	"testing"

	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// BenchmarkSummaryCollect measures the record-collection stage of a
// cell plus the result read: one op collects the four records of one
// fig2-serv-shaped cell (slashdot ×0.05, k = 50, the §IV roster) into a
// fresh Summary and builds the job result from it with
// serv.BuildResult. fig2-checkpoints adds Fig. 2's ten benefit-vs-k
// checkpoints, as the fig2 experiment collects them; no-checkpoints is
// the accuserv / accudist / accurun shape.
func BenchmarkSummaryCollect(b *testing.B) {
	spec := serv.Spec{
		Preset:   "slashdot",
		Scale:    0.05,
		Policies: []serv.PolicySpec{{Name: "abm"}, {Name: "maxdegree"}, {Name: "pagerank"}, {Name: "random"}},
		Networks: 1,
		Runs:     1,
		K:        50,
		Seed:     11,
	}
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	var recs []sim.Record
	if err := sim.Run(context.Background(), protocol, factories, func(r sim.Record) { recs = append(recs, r) }); err != nil {
		b.Fatal(err)
	}
	fig2 := make([]int, 10)
	for i := range fig2 {
		fig2[i] = (i + 1) * spec.K / len(fig2)
	}
	for _, shape := range []struct {
		name        string
		checkpoints []int
	}{{"no-checkpoints", nil}, {"fig2-checkpoints", fig2}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := sim.NewSummary(shape.checkpoints)
				for _, r := range recs {
					sum.Collect(r)
				}
				if res := serv.BuildResult(sim.NewRecordDigest(), sum); len(res.Policies) != len(recs) {
					b.Fatalf("policies = %d, want %d", len(res.Policies), len(recs))
				}
			}
		})
	}
}
